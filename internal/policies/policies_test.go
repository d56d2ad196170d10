package policies

import (
	"strings"
	"testing"
)

func TestEveryBaseNameConstructs(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if p.Name() == "" {
			t.Errorf("%s: empty display name", name)
		}
	}
}

func TestAliasesResolveToSamePolicy(t *testing.T) {
	cases := [][2]string{
		{"edf", "nondvs"},
		{"staticEDF", "static"},
		{"ccEDF", "cc"},
		{"laedf", "la"},
		{"fb", "feedback"},
		{"greedy", "lpshe-greedy"},
		{"LPSHE", "lpshe"},
		{" lpshe ", "lpshe"},
	}
	for _, c := range cases {
		a, errA := New(c[0])
		b, errB := New(c[1])
		if errA != nil || errB != nil {
			t.Errorf("%q/%q: %v %v", c[0], c[1], errA, errB)
			continue
		}
		if a.Name() != b.Name() {
			t.Errorf("alias %q resolves to %q, want %q (via %q)", c[0], a.Name(), b.Name(), c[1])
		}
	}
}

func TestWrappersCompose(t *testing.T) {
	p, err := New("lpshe+dual+guard")
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []string{"lpSHE", "dual", "guard"} {
		if !strings.Contains(p.Name(), part) {
			t.Errorf("wrapped name %q missing %q", p.Name(), part)
		}
	}
}

func TestLookupErrors(t *testing.T) {
	for _, spec := range []string{"", "nope", "lpshe+bogus", "+dual"} {
		if _, err := Lookup(spec); err == nil {
			t.Errorf("Lookup(%q) should fail", spec)
		}
	}
}

func TestFactoriesReturnFreshInstances(t *testing.T) {
	mk, err := Lookup("lpshe")
	if err != nil {
		t.Fatal(err)
	}
	if mk() == mk() {
		t.Error("factory returned the same instance twice")
	}
}

func TestSpecOfInvertsDisplayNames(t *testing.T) {
	specs := append(Names(), "lpshe+dual", "lpshe+guard+crit", "cc+dual")
	for _, spec := range specs {
		p, err := New(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		back := SpecOf(p.Name())
		if back == "" {
			t.Errorf("SpecOf(%q) = \"\", want a spec", p.Name())
			continue
		}
		q, err := New(back)
		if err != nil {
			t.Errorf("SpecOf(%q) = %q which does not construct: %v", p.Name(), back, err)
			continue
		}
		if q.Name() != p.Name() {
			t.Errorf("round trip %s -> %s -> %s changed the policy", spec, p.Name(), q.Name())
		}
	}
	if SpecOf("no-such-policy") != "" {
		t.Error("SpecOf of an unknown name should be empty")
	}
}

// TestCanonicalMatchesBuiltName pins Canonical to the definition it
// shortcuts, SpecOf(New(spec).Name()), over every base name and alias
// in any case and padding, with wrapper chains, and on rejected specs.
func TestCanonicalMatchesBuiltName(t *testing.T) {
	var specs []string
	for _, k := range Names() {
		p, _ := New(k)
		specs = append(specs, k, strings.ToUpper(k), " "+p.Name()+" ", p.Name())
	}
	for a := range aliases {
		specs = append(specs, a, strings.ToUpper(a))
	}
	for _, w := range []string{"+dual", "+guard", "+crit", "+DUAL", "+ guard ", "+dual+crit+guard"} {
		specs = append(specs, "lpshe"+w, "greedy"+w, "ccEDF"+w)
	}
	specs = append(specs, "", "+", "lpshe+", "lpshe+bogus", "bogus", "bogus+dual", "lpshe++dual", "lpshe+dual+")
	for _, spec := range specs {
		want := ""
		if p, err := New(spec); err == nil {
			want = SpecOf(p.Name())
		}
		if got := Canonical(spec); got != want {
			t.Errorf("Canonical(%q) = %q, want %q", spec, got, want)
		}
	}
}
