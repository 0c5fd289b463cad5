// Package fuzzgen generates random well-typed Impala programs for the
// differential pipeline fuzzer. Programs terminate by construction — loops
// have static bounds, array indices are masked into range — so the
// reference interpreter, both Thorin pipelines and the SSA baseline must
// all terminate and agree on every generated program. Divisions inside
// expressions are guarded to nonzero denominators; the one deliberate
// exception is a maybe-zero denominator some programs place in main's tail
// expression, where a zero must trap identically in every arm (the
// differential oracle judges traps). A disagreement is always a compiler
// bug, never an artifact of the input.
//
// The generator is deterministic in its seed: the same seed yields the same
// program on every platform, which is what lets a crash artifact reference
// a seed instead of shipping the whole source.
package fuzzgen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Prelude declares higher-order helpers and statics the generated main may
// use; it exercises specialization, closure conversion and globals.
const Prelude = `
static gcount = 0;

fn apply2(f: fn(i64) -> i64, x: i64) -> i64 { f(f(x)) }

fn pick(c: bool, a: fn(i64) -> i64, b: fn(i64) -> i64, x: i64) -> i64 {
	if c { a(x) } else { b(x) }
}

fn iter(n: i64, seed: i64, f: fn(i64) -> i64) -> i64 {
	let mut acc = seed;
	for i in 0 .. n { acc = f(acc); }
	acc
}

fn bump_gcount(v: i64) -> i64 {
	gcount = gcount + v;
	gcount
}
`

// gen carries the generator state: the in-scope variable pools and the
// output under construction.
type gen struct {
	r      *rand.Rand
	sb     strings.Builder
	vars   []string // in-scope i64 variables
	muts   []string // in-scope mutable i64 variables
	arrs   []string // in-scope [i64] arrays (all of length 8)
	tmp    int
	memory bool // bias the statement mix towards slot and array traffic
}

// Program builds one random program whose main takes a single i64 parameter
// and returns i64. Identical seeds produce identical programs.
func Program(seed int64) string {
	g := &gen{r: rand.New(rand.NewSource(seed))}
	g.sb.WriteString(Prelude)
	g.sb.WriteString("fn main(n: i64) -> i64 {\n")
	g.vars = []string{"n"}
	g.stmts(3, 3+g.r.Intn(4), "\t")
	tail := g.expr(3)
	if g.r.Intn(4) == 0 {
		// Maybe-zero denominator in the guaranteed-used tail: when it is
		// zero at runtime, the interpreter, the VM and every optimization
		// level must all trap (constant folding must not paper over it).
		// Only the tail gets one — a discardable division could be
		// legitimately dead-code-eliminated while the interpreter traps.
		op := []string{"/", "%"}[g.r.Intn(2)]
		tail = fmt.Sprintf("(%s) + ((%s) %s ((%s) & 1))", tail, g.expr(2), op, g.expr(2))
	}
	fmt.Fprintf(&g.sb, "\t(%s) + gcount\n}\n", tail)
	return g.sb.String()
}

// MemoryProgram builds one random memory-heavy program: the statement mix
// is biased towards mutable slots, array stores and loads inside loops,
// repeated stores to the same cell, and lambda-captured mutables whose
// slots escape — exactly the shapes the alias regions, region-local
// promotion and dead-store elimination must get right. Identical seeds produce
// identical programs.
func MemoryProgram(seed int64) string {
	g := &gen{r: rand.New(rand.NewSource(seed)), memory: true}
	g.sb.WriteString(Prelude)
	g.sb.WriteString("fn main(n: i64) -> i64 {\n")
	// Seed the pools so every memory statement has a target: two disjoint
	// mutable cells, one array, and the global from the prelude. The names
	// avoid every fresh-name prefix of the generator.
	g.sb.WriteString("\tlet mut sx = n;\n\tlet mut sy = (n * 3);\n\tlet arr = [n; 8];\n")
	g.vars = []string{"n", "sx", "sy"}
	g.muts = []string{"sx", "sy"}
	g.arrs = []string{"arr"}
	g.stmts(3, 5+g.r.Intn(4), "\t")
	fmt.Fprintf(&g.sb, "\t(%s) + sx + sy + arr[(n & 7)] + gcount\n}\n", g.expr(2))
	return g.sb.String()
}

// memStmtMix is the statement distribution of memory mode: mostly mutable
// assignments, array traffic and loops, with a slice of the regular mix
// (cases 0..8 of stmts) and the capture-escape statement (case 9).
var memStmtMix = []int{2, 3, 3, 3, 4, 4, 5, 6, 6, 6, 7, 8, 9, 9, 0}

func (g *gen) fresh(prefix string) string {
	g.tmp++
	return fmt.Sprintf("%s%d", prefix, g.tmp)
}

// expr emits a random i64 expression using the in-scope variables.
func (g *gen) expr(depth int) string {
	if depth <= 0 || g.r.Intn(4) == 0 {
		if len(g.vars) > 0 && g.r.Intn(3) != 0 {
			return g.vars[g.r.Intn(len(g.vars))]
		}
		return fmt.Sprintf("%d", g.r.Int63n(201)-100)
	}
	switch g.r.Intn(13) {
	case 0, 1:
		op := []string{"+", "-", "*"}[g.r.Intn(3)]
		return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), op, g.expr(depth-1))
	case 2:
		op := []string{"&", "|", "^"}[g.r.Intn(3)]
		return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), op, g.expr(depth-1))
	case 3:
		// Shift by a small constant.
		return fmt.Sprintf("(%s %s %d)", g.expr(depth-1),
			[]string{"<<", ">>"}[g.r.Intn(2)], g.r.Intn(8))
	case 4:
		// Guarded division: denominator is made nonzero.
		return fmt.Sprintf("(%s %s ((%s & 7) + 1))", g.expr(depth-1),
			[]string{"/", "%"}[g.r.Intn(2)], g.expr(depth-1))
	case 5:
		return fmt.Sprintf("(if %s { %s } else { %s })",
			g.boolExpr(depth-1), g.expr(depth-1), g.expr(depth-1))
	case 6:
		return fmt.Sprintf("(-%s)", g.expr(depth-1))
	case 7:
		// Array read (all arrays have length 8; the index is masked).
		if len(g.arrs) == 0 {
			return g.expr(depth - 1)
		}
		return fmt.Sprintf("%s[(%s & 7)]", g.arrs[g.r.Intn(len(g.arrs))], g.expr(depth-1))
	case 8:
		// Tuple literal + projection.
		i := g.r.Intn(2)
		return fmt.Sprintf("(%s, %s).%d", g.expr(depth-1), g.expr(depth-1), i)
	case 9:
		// Higher-order helper with a lambda argument.
		return g.hofExpr(depth)
	case 10:
		// Float round trip: exact for small integers.
		return fmt.Sprintf("((((%s & 255) as f64) * 2.0 + 0.5) as i64)", g.expr(depth-1))
	default:
		// Immediately-applied lambda: exercises the higher-order paths.
		param := g.fresh("p")
		savedVars := g.vars
		g.vars = append(append([]string(nil), g.vars...), param)
		body := g.expr(depth - 1)
		g.vars = savedVars
		return fmt.Sprintf("(|%s: i64| %s)(%s)", param, body, g.expr(depth-1))
	}
}

// hofExpr calls one of the prelude's higher-order helpers with a random
// lambda.
func (g *gen) hofExpr(depth int) string {
	param := g.fresh("q")
	savedVars := g.vars
	g.vars = append(append([]string(nil), g.vars...), param)
	body := g.expr(depth - 1)
	g.vars = savedVars
	lam := fmt.Sprintf("|%s: i64| %s", param, body)
	switch g.r.Intn(4) {
	case 0:
		return fmt.Sprintf("apply2(%s, %s)", lam, g.expr(depth-1))
	case 1:
		savedVars := g.vars
		param2 := g.fresh("q")
		g.vars = append(append([]string(nil), g.vars...), param2)
		body2 := g.expr(depth - 1)
		g.vars = savedVars
		return fmt.Sprintf("pick(%s, %s, |%s: i64| %s, %s)",
			g.boolExpr(depth-1), lam, param2, body2, g.expr(depth-1))
	case 2:
		return fmt.Sprintf("iter(%d, %s, %s)", g.r.Intn(6)+1, g.expr(depth-1), lam)
	default:
		return fmt.Sprintf("bump_gcount((%s & 63))", g.expr(depth-1))
	}
}

func (g *gen) boolExpr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		return fmt.Sprintf("(%s %s %s)", g.expr(depth),
			[]string{"<", "<=", ">", ">=", "==", "!="}[g.r.Intn(6)], g.expr(depth))
	}
	switch g.r.Intn(3) {
	case 0:
		return fmt.Sprintf("(%s && %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
	case 1:
		return fmt.Sprintf("(%s || %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
	default:
		return fmt.Sprintf("(!%s)", g.boolExpr(depth-1))
	}
}

// stmts emits a random statement sequence at the given indent.
func (g *gen) stmts(depth, count int, indent string) {
	for i := 0; i < count; i++ {
		pick := g.r.Intn(9)
		if g.memory {
			pick = memStmtMix[g.r.Intn(len(memStmtMix))]
		}
		switch pick {
		case 0, 1:
			name := g.fresh("v")
			fmt.Fprintf(&g.sb, "%slet %s = %s;\n", indent, name, g.expr(depth))
			g.vars = append(g.vars, name)
		case 2:
			name := g.fresh("m")
			fmt.Fprintf(&g.sb, "%slet mut %s = %s;\n", indent, name, g.expr(depth))
			g.vars = append(g.vars, name)
			g.muts = append(g.muts, name)
		case 3:
			if len(g.muts) == 0 {
				continue
			}
			m := g.muts[g.r.Intn(len(g.muts))]
			fmt.Fprintf(&g.sb, "%s%s = %s;\n", indent, m, g.expr(depth))
		case 4:
			// Bounded for loop accumulating into a mutable.
			if len(g.muts) == 0 {
				continue
			}
			m := g.muts[g.r.Intn(len(g.muts))]
			iv := g.fresh("i")
			fmt.Fprintf(&g.sb, "%sfor %s in 0 .. %d {\n", indent, iv, g.r.Intn(9)+1)
			nv, nm, na := len(g.vars), len(g.muts), len(g.arrs)
			g.vars = append(g.vars, iv)
			g.stmts(depth-1, 1+g.r.Intn(2), indent+"\t")
			fmt.Fprintf(&g.sb, "%s\t%s = %s + %s;\n", indent, m, m, g.expr(depth-1))
			g.vars, g.muts, g.arrs = g.vars[:nv], g.muts[:nm], g.arrs[:na]
			fmt.Fprintf(&g.sb, "%s}\n", indent)
		case 5:
			// Fresh array (fixed length 8 so index masking stays valid).
			name := g.fresh("a")
			fmt.Fprintf(&g.sb, "%slet %s = [%s; 8];\n", indent, name, g.expr(depth-1))
			g.arrs = append(g.arrs, name)
		case 6:
			if len(g.arrs) == 0 {
				continue
			}
			a := g.arrs[g.r.Intn(len(g.arrs))]
			fmt.Fprintf(&g.sb, "%s%s[(%s & 7)] = %s;\n", indent, a, g.expr(depth-1), g.expr(depth))
		case 7:
			// Bounded while loop over a fresh counter.
			w := g.fresh("w")
			fmt.Fprintf(&g.sb, "%slet mut %s = %d;\n", indent, w, g.r.Intn(7)+1)
			fmt.Fprintf(&g.sb, "%swhile %s > 0 {\n", indent, w)
			nv, nm, na := len(g.vars), len(g.muts), len(g.arrs)
			g.stmts(depth-1, 1, indent+"\t")
			g.vars, g.muts, g.arrs = g.vars[:nv], g.muts[:nm], g.arrs[:na]
			fmt.Fprintf(&g.sb, "%s\t%s = %s - 1;\n", indent, w, w)
			fmt.Fprintf(&g.sb, "%s}\n", indent)
			g.vars = append(g.vars, w)
			g.muts = append(g.muts, w)
		case 9:
			// Memory mode only: a lambda captures a mutable, so its slot
			// escapes into the closure environment — the ⊤-region traffic
			// the alias analysis must keep apart from the clean slots.
			if len(g.muts) == 0 {
				continue
			}
			m := g.muts[g.r.Intn(len(g.muts))]
			p := g.fresh("p")
			fmt.Fprintf(&g.sb, "%s%s = (|%s: i64| (%s + %s))(%s);\n",
				indent, m, p, m, p, g.expr(depth-1))
		default:
			// Conditional statement; its lets are block-scoped.
			fmt.Fprintf(&g.sb, "%sif %s {\n", indent, g.boolExpr(depth))
			nv, nm, na := len(g.vars), len(g.muts), len(g.arrs)
			g.stmts(depth-1, 1, indent+"\t")
			g.vars, g.muts, g.arrs = g.vars[:nv], g.muts[:nm], g.arrs[:na]
			fmt.Fprintf(&g.sb, "%s}\n", indent)
		}
	}
}
