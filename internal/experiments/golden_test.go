package experiments

import (
	"bytes"
	"flag"
	"os"
	"slices"
	"strings"
	"testing"
)

var (
	update = flag.Bool("update", false, "rewrite the golden files TestGolden compares from this tree")
	paper  = flag.Bool("paper", false, "TestGolden also compares the paper-scale golden (Config{Seed: 1}, about 6 s)")
)

// TestGolden holds every registered artefact's rendering to bytes captured at
// a fixed seed: the range tests say what the paper claims, the golden says
// that nothing moved. Only a deliberate calibration of the reproduction
// rewrites a golden (-update), in the commit that moves it.
func TestGolden(t *testing.T) {
	golden(t, "testdata/golden_fast.txt", func(id string) *Result { return run(t, id) })
	if *paper {
		golden(t, "testdata/golden_paper.txt", func(id string) *Result { return runAt(t, id, Config{Seed: 1}) })
	}
}

func golden(t *testing.T, path string, result func(id string) *Result) {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range Registry {
		if err := result(e.ID).Render(&buf); err != nil {
			t.Fatalf("%s render: %v", e.ID, err)
		}
	}
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -run '^TestGolden$' ./internal/experiments -args -update writes it)", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	gotArt, wantArt := artefacts(buf.String()), artefacts(string(want))
	differs := false
	for _, e := range Registry {
		g, w := gotArt[e.ID], wantArt[e.ID]
		if slices.Equal(g, w) {
			continue
		}
		differs = true
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Errorf("%s: %s differs from line %d of its artefact:\n got %q\nwant %q", path, e.ID, i+1, lineAt(g, i), lineAt(w, i))
	}
	if !differs {
		t.Errorf("%s: holds an artefact no experiment is registered for", path)
	}
}

// artefacts splits a rendering of the registry by artefact ID: each artefact
// starts at its "== id: title ==" line.
func artefacts(text string) map[string][]string {
	out := map[string][]string{}
	id := ""
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			id, _, _ = strings.Cut(rest, ":")
		}
		out[id] = append(out[id], line)
	}
	return out
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of artefact>"
}
