package serve

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"pseudosphere/internal/modelspec"
)

// Hard parameter ceilings, enforced before any validation that would
// require building something. They bound memory, not correctness: the
// real work bound is the facet-budget admission check. Model-parameter
// ceilings (n, rounds) live in modelspec with the registry.
const (
	maxValues = 16
	// maxGFpP caps field=gfp moduli: far below the 2^31 bound the
	// homology engine checks (where products of residues stop fitting an
	// int64), and small enough that the trial-division primality check
	// is microseconds.
	maxGFpP = 1 << 20
)

// badRequestError marks client errors that map to HTTP 400.
type badRequestError struct{ msg string }

func (e badRequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return badRequestError{msg: fmt.Sprintf(format, args...)}
}

// qInt parses an optional integer query parameter.
func qInt(q url.Values, name string, def int) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("parameter %s=%q is not an integer", name, raw)
	}
	return v, nil
}

// qValues parses the comma-separated value set, defaulting to binary.
func qValues(q url.Values) ([]string, error) {
	raw := q.Get("values")
	if raw == "" {
		return []string{"0", "1"}, nil
	}
	vals := strings.Split(raw, ",")
	seen := make(map[string]bool, len(vals))
	for _, v := range vals {
		if v == "" {
			return nil, badRequest("values %q contains an empty value", raw)
		}
		if seen[v] {
			return nil, badRequest("values %q contains %q twice", raw, v)
		}
		seen[v] = true
	}
	if len(vals) > maxValues {
		return nil, badRequest("%d values exceeds the limit of %d", len(vals), maxValues)
	}
	return vals, nil
}

// resolveModel resolves a request's model through the modelspec registry:
// the inline spec when the request carried one (POST bodies, job specs),
// otherwise the preset named in the query. This is the only model
// resolution path in the package — serve knows no model names.
func resolveModel(q url.Values, spec *modelspec.Spec) (*modelspec.Instance, error) {
	if spec == nil {
		return modelspec.FromQuery(q)
	}
	if q.Get("model") != "" {
		return nil, badRequest("request has both an inline model spec and a model= parameter")
	}
	return spec.Compile()
}

// isPrime reports primality by trial division; callers cap the argument
// (maxGFpP) so this is microseconds.
func isPrime(p int) bool {
	if p < 2 {
		return false
	}
	for d := 2; d*d <= p; d++ {
		if p%d == 0 {
			return false
		}
	}
	return true
}
