package bench

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// experimentsFile is the record of paper-vs-measured results. Its
// deterministic tables are checked against the generators here, so a change
// that moves a number must update the document in the same commit.
// Regenerate the blocks (only after a deliberate change) with:
//
//	THORIN_UPDATE_GOLDEN=1 go test -run TestExperimentsUpToDate ./internal/bench
const experimentsFile = "../../EXPERIMENTS.md"

// TestExperimentsUpToDate runs every deterministic table and figure at its
// default sizes and compares its output, minus the title line, byte for
// byte with the first fenced block under the EXPERIMENTS.md heading that
// starts with the given prefix. Compile-time tables (4, 5, 6) are
// wall-clock measurements and are not checked.
func TestExperimentsUpToDate(t *testing.T) {
	sections := []struct {
		heading string
		gen     func(io.Writer) error
	}{
		{"## Table 1 ", func(w io.Writer) error { return Table1(w, nil) }},
		{"## Table 2 ", func(w io.Writer) error { return Table2(w, nil) }},
		{"## Figure “runtime”", func(w io.Writer) error { return FigureRuntime(w, nil) }},
		{"## Figure “sweep”", FigureSweep},
		{"## Table 3 ", Table3},
	}
	data, err := os.ReadFile(experimentsFile)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	update := os.Getenv("THORIN_UPDATE_GOLDEN") != ""
	for _, s := range sections {
		var buf bytes.Buffer
		if err := s.gen(&buf); err != nil {
			t.Fatalf("%s: %v", s.heading, err)
		}
		_, got, _ := strings.Cut(buf.String(), "\n")
		start, end, err := fencedBlock(doc, s.heading)
		if err != nil {
			t.Fatal(err)
		}
		if update {
			doc = doc[:start] + got + doc[end:]
			continue
		}
		if want := doc[start:end]; got != want {
			t.Errorf("%s: EXPERIMENTS.md is stale (regenerate with THORIN_UPDATE_GOLDEN=1)\n--- recorded\n%s--- measured\n%s",
				s.heading, want, got)
		}
	}
	if update {
		if err := os.WriteFile(experimentsFile, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %d blocks of %s", len(sections), experimentsFile)
	}
}

// fencedBlock locates the body of the first ``` block after the line that
// starts with heading and returns its byte range in doc: from after the
// opening fence line to the start of the closing fence line.
func fencedBlock(doc, heading string) (start, end int, err error) {
	h := strings.Index(doc, "\n"+heading)
	if h < 0 {
		return 0, 0, fmt.Errorf("%s: heading not found in %s", heading, experimentsFile)
	}
	open := strings.Index(doc[h:], "\n```\n")
	if open < 0 {
		return 0, 0, fmt.Errorf("%s: no fenced block under the heading", heading)
	}
	start = h + open + len("\n```\n")
	closing := strings.Index(doc[start:], "```\n")
	if closing < 0 {
		return 0, 0, fmt.Errorf("%s: unterminated fenced block", heading)
	}
	return start, start + closing, nil
}
