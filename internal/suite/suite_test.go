package suite

import (
	"strings"
	"testing"

	"staticest"
)

// TestAllProgramsCompileAndRun is the suite's gate: every program must
// compile through the full pipeline and run cleanly on every input.
func TestAllProgramsCompileAndRun(t *testing.T) {
	for _, p := range Programs() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			u, err := p.CompileCached()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if len(p.Inputs) < 4 {
				t.Errorf("only %d inputs; the paper used four or more", len(p.Inputs))
			}
			inputs := p.Inputs
			if p.TimingInput != nil {
				inputs = append(append([]Input{}, inputs...), *p.TimingInput)
			}
			for _, in := range inputs {
				res, err := u.Run(staticest.RunOptions{Args: in.Args, Stdin: in.Stdin})
				if err != nil {
					t.Fatalf("input %s: %v", in.Name, err)
				}
				if res.ExitCode != 0 {
					t.Errorf("input %s: exit code %d, output:\n%s",
						in.Name, res.ExitCode, res.Output)
				}
				if res.Steps < 1000 {
					t.Errorf("input %s: only %d block executions; too trivial to profile",
						in.Name, res.Steps)
				}
				if res.Steps > 5_000_000 {
					t.Errorf("input %s: %d block executions; too slow for the harness",
						in.Name, res.Steps)
				}
			}
		})
	}
}

// TestInputsDiffer ensures each program's inputs exercise different
// behaviour (otherwise cross-input profiling scores are trivially 100%).
func TestInputsDiffer(t *testing.T) {
	for _, p := range Programs() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			u, err := p.CompileCached()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			outs := map[string]string{}
			for _, in := range p.Inputs {
				res, err := u.Run(staticest.RunOptions{Args: in.Args, Stdin: in.Stdin})
				if err != nil {
					t.Fatalf("input %s: %v", in.Name, err)
				}
				outs[in.Name] = string(res.Output)
			}
			distinct := map[string]bool{}
			for _, o := range outs {
				distinct[o] = true
			}
			if len(distinct) < 2 {
				t.Errorf("all %d inputs produce identical output", len(outs))
			}
		})
	}
}

func TestSuiteMetadata(t *testing.T) {
	progs := Programs()
	if len(progs) != 14 {
		t.Fatalf("suite has %d programs, want 14 (Table 1)", len(progs))
	}
	seen := map[string]bool{}
	for _, p := range progs {
		if seen[p.Name] {
			t.Errorf("duplicate program name %s", p.Name)
		}
		seen[p.Name] = true
		if p.Description == "" {
			t.Errorf("%s: missing description", p.Name)
		}
		if Lines(p.Source) < 50 {
			t.Errorf("%s: suspiciously small (%d lines)", p.Name, Lines(p.Source))
		}
	}
	for _, want := range []string{"alvinn", "compress", "ear", "eqntott",
		"espresso", "gcc", "sc", "xlisp", "awk", "bison", "cholesky",
		"gs", "mpeg", "water"} {
		if !seen[want] {
			t.Errorf("suite missing %s", want)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("compress")
	if err != nil || p.Name != "compress" {
		t.Fatalf("ByName(compress) = %v, %v", p, err)
	}
	// The suite is built once: every caller shares its programs.
	if again, _ := ByName("compress"); again != p {
		t.Errorf("ByName(compress) returned %p, then %p", p, again)
	}
	if _, err := ByName("nope"); err == nil ||
		!strings.Contains(err.Error(), "unknown program") {
		t.Errorf("ByName(nope) error = %v", err)
	}
}

// TestCompressShape checks the properties Figure 10 depends on: 16
// functions with a handful dominating the cycle count.
func TestCompressShape(t *testing.T) {
	p := Compress()
	u, err := p.CompileCached()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if n := len(u.Sem.Funcs); n != 16 {
		t.Errorf("compress has %d functions, want 16 (paper)", n)
	}
	if p.TimingInput == nil {
		t.Fatal("compress needs a held-out timing input for Figure 10")
	}
}
