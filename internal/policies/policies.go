// Package policies is the canonical name → policy factory registry.
//
// Every DVS policy shipped by this module is constructible from a
// short string identifier, which is what lets the simulation daemon
// (internal/server) accept policies over the wire, cmd/dvssim select
// them from a flag, and the experiment harness farm replications out
// to remote workers by name alone.
//
// Base policy names:
//
//	nondvs, static, lpps, cc, la, dra, feedback, lpshe,
//	lpshe-greedy, lpshe-no-reclaim, lpshe-horizon8, lpshe-horizon32,
//	lpshe-rescan
//
// The canonical display names returned by sim.Policy.Name (nonDVS,
// staticEDF, lppsEDF, ccEDF, laEDF, DRA, fbEDF, lpSHE, lpSHE-greedy,
// ...) are accepted as aliases, case-insensitively.
//
// Wrapper suffixes may be appended (repeatedly) with '+':
//
//	+dual   dvs.DualLevel   two-level discrete-speed emulation
//	+guard  dvs.OverheadGuard  switch-overhead guard
//	+crit   dvs.EfficientFloor critical-speed floor (leakage)
//
// e.g. "lpshe+dual" or "lpSHE+guard". Factories return a fresh policy
// instance on every call; instances are single-run values and must
// not be shared between concurrent simulations.
package policies

import (
	"fmt"
	"sort"
	"strings"

	"dvsslack/internal/core"
	"dvsslack/internal/dvs"
	"dvsslack/internal/sim"
)

// Factory creates a fresh policy instance for one run.
type Factory func() sim.Policy

// base maps canonical identifiers to base-policy factories.
var base = map[string]Factory{
	"nondvs":           func() sim.Policy { return &dvs.NonDVS{} },
	"static":           func() sim.Policy { return &dvs.StaticEDF{} },
	"lpps":             func() sim.Policy { return &dvs.LppsEDF{} },
	"cc":               func() sim.Policy { return &dvs.CCEDF{} },
	"la":               func() sim.Policy { return &dvs.LAEDF{} },
	"dra":              func() sim.Policy { return &dvs.DRA{} },
	"feedback":         func() sim.Policy { return dvs.NewFeedbackEDF() },
	"lpshe":            func() sim.Policy { return core.NewLpSHE() },
	"lpshe-greedy":     func() sim.Policy { return core.NewLpSHEVariant(core.Greedy) },
	"lpshe-no-reclaim": func() sim.Policy { return core.NewLpSHEVariant(core.NoReclaim) },
	"lpshe-horizon8":   func() sim.Policy { return core.NewLpSHEVariant(core.Horizon8) },
	"lpshe-horizon32":  func() sim.Policy { return core.NewLpSHEVariant(core.Horizon32) },
	"lpshe-rescan":     func() sim.Policy { return core.NewLpSHEVariant(core.Rescan) },
}

// aliases maps the display names (sim.Policy.Name, lowercased) and
// historical CLI spellings onto canonical identifiers.
var aliases = map[string]string{
	"edf":       "nondvs",
	"staticedf": "static",
	"lppsedf":   "lpps",
	"ccedf":     "cc",
	"laedf":     "la",
	"fbedf":     "feedback",
	"fb":        "feedback",
	"greedy":    "lpshe-greedy",
}

// wrappers maps '+suffix' spellings to policy-wrapping constructors.
var wrappers = map[string]func(sim.Policy) sim.Policy{
	"dual":  func(p sim.Policy) sim.Policy { return dvs.NewDualLevel(p) },
	"guard": func(p sim.Policy) sim.Policy { return dvs.NewOverheadGuard(p) },
	"crit":  func(p sim.Policy) sim.Policy { return dvs.NewEfficientFloor(p) },
}

// Names returns the canonical base identifiers, sorted.
func Names() []string {
	names := make([]string, 0, len(base))
	for k := range base {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Canonical resolves any accepted spelling of a base policy to its
// canonical identifier ("" if unknown).
func canonical(name string) string {
	k := strings.ToLower(strings.TrimSpace(name))
	if a, ok := aliases[k]; ok {
		k = a
	}
	if _, ok := base[k]; ok {
		return k
	}
	return ""
}

// Lookup resolves a policy spec — a base name optionally followed by
// '+wrapper' suffixes — to a factory. The factory is safe to call
// from multiple goroutines; each call returns an independent policy.
func Lookup(spec string) (Factory, error) {
	parts := strings.Split(spec, "+")
	k := canonical(parts[0])
	if k == "" {
		return nil, fmt.Errorf("policies: unknown policy %q (known: %s)",
			parts[0], strings.Join(Names(), ", "))
	}
	mk := base[k]
	for _, w := range parts[1:] {
		wrap, ok := wrappers[strings.ToLower(strings.TrimSpace(w))]
		if !ok {
			return nil, fmt.Errorf("policies: unknown wrapper %q in %q (known: crit, dual, guard)", w, spec)
		}
		inner := mk
		mk = func() sim.Policy { return wrap(inner()) }
	}
	return mk, nil
}

// New resolves spec and constructs one policy instance.
func New(spec string) (sim.Policy, error) {
	mk, err := Lookup(spec)
	if err != nil {
		return nil, err
	}
	return mk(), nil
}

// Canonical maps any spec Lookup accepts to the one spelling of the
// policy it builds: SpecOf(New(spec).Name()), computed from the
// registry without constructing a policy. It returns "" for a spec
// Lookup rejects. The server keys its result cache (and the fleet its
// routing) by this spelling, so every alias of one policy shares one
// key.
func Canonical(spec string) string {
	head, rest, wrapped := strings.Cut(spec, "+")
	k := canonical(head)
	if k == "" || !wrapped {
		return k
	}
	var b strings.Builder
	b.WriteString(k)
	for wrapped {
		var w string
		w, rest, wrapped = strings.Cut(rest, "+")
		w = strings.ToLower(strings.TrimSpace(w))
		if _, ok := wrappers[w]; !ok {
			return ""
		}
		b.WriteByte('+')
		b.WriteString(w)
	}
	return b.String()
}

// SpecOf maps a policy display name (as reported by sim.Policy.Name,
// e.g. "lpSHE+dual") back to a spec accepted by Lookup, or "" when
// the name does not correspond to a registered policy. It is the
// inverse the experiment harness uses to ship its factory suites to a
// remote daemon by name.
func SpecOf(displayName string) string {
	parts := strings.Split(displayName, "+")
	k := canonical(parts[0])
	if k == "" {
		return ""
	}
	spec := k
	for _, w := range parts[1:] {
		if _, ok := wrappers[strings.ToLower(w)]; !ok {
			return ""
		}
		spec += "+" + strings.ToLower(w)
	}
	return spec
}
