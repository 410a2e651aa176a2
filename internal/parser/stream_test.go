package parser

import (
	"fmt"
	"strings"
	"testing"

	"tbaa/internal/bench"
	"tbaa/internal/randprog"
)

func errorLines(err error) []string {
	var out []string
	for _, e := range err.(ErrorList) {
		out = append(out, e.Error())
	}
	return out
}

// TestErrorOrder pins the order the streamed lexer and parser report
// errors in: every lexical error first, including those past the
// point where parsing stopped, then syntax errors while the list holds
// fewer than 50.
func TestErrorOrder(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{"MODULE M; BEGIN END M. $ x ?", []string{
			`e.m3:1:24: syntax error: illegal character "$"`,
			`e.m3:1:28: syntax error: illegal character "?"`,
		}},
		{"MODULE M; BEGIN END M. (* unterminated", []string{
			`e.m3:1:24: syntax error: unterminated comment`,
		}},
		{"MODULE M; (* open", []string{
			`e.m3:1:11: syntax error: unterminated comment`,
			`e.m3:1:18: syntax error: expected END, found EOF`,
			`e.m3:1:18: syntax error: expected IDENT, found EOF`,
			`e.m3:1:18: syntax error: module M ends with END `,
			`e.m3:1:18: syntax error: expected ., found EOF`,
		}},
		{"MODULE M; BEGIN x := 1 $ ; END M.", []string{
			`e.m3:1:24: syntax error: illegal character "$"`,
			`e.m3:1:24: syntax error: expected statement, found ILLEGAL`,
		}},
	}
	for _, tc := range cases {
		_, err := Parse("e.m3", tc.src)
		if err == nil {
			t.Errorf("%q parsed", tc.src)
			continue
		}
		if got := errorLines(err); strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%q:\n got %q\nwant %q", tc.src, got, tc.want)
		}
	}

	// 60 stray ")" are 60 syntax errors; three illegal characters, one
	// before them and two after END M., are reported first and leave
	// room for 47.
	const prefix = "MODULE M; BEGIN $ "
	_, err := Parse("e.m3", prefix+strings.Repeat(") ", 60)+"END M. ? !")
	got := errorLines(err)
	want := []string{
		`e.m3:1:17: syntax error: illegal character "$"`,
		fmt.Sprintf(`e.m3:1:%d: syntax error: illegal character "?"`, len(prefix)+120+8),
		fmt.Sprintf(`e.m3:1:%d: syntax error: illegal character "!"`, len(prefix)+120+10),
		`e.m3:1:17: syntax error: expected statement, found ILLEGAL`,
	}
	for i := 0; i < 46; i++ {
		want = append(want, fmt.Sprintf("e.m3:1:%d: syntax error: expected statement, found )", len(prefix)+1+2*i))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("60 syntax errors after 3 lexical ones:\n got %q\nwant %q", got, want)
	}
}

// TestNestingCap feeds every recursive form just past the cap: each
// must be rejected with a positioned error instead of recursing on.
func TestNestingCap(t *testing.T) {
	const n = MaxNesting + 1
	deep := map[string]string{
		"parens":   "BEGIN x := " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + ";",
		"sum":      "BEGIN x := 1" + strings.Repeat(" + 1", n) + ";",
		"product":  "BEGIN x := 1" + strings.Repeat(" * 1", n) + ";",
		"not":      "BEGIN b := " + strings.Repeat("NOT ", n) + "b;",
		"deref":    "BEGIN x := p" + strings.Repeat("^", n) + ";",
		"fields":   "BEGIN x := p" + strings.Repeat(".f", n) + ";",
		"calls":    "BEGIN F" + strings.Repeat("()", n) + ";",
		"indexes":  "BEGIN x := a" + strings.Repeat("[0]", n) + ";",
		"if":       "BEGIN " + strings.Repeat("IF b THEN ", n) + strings.Repeat("END; ", n),
		"elsif":    "BEGIN IF b THEN" + strings.Repeat(" ELSIF b THEN", n) + " END;",
		"while":    "BEGIN " + strings.Repeat("WHILE b DO ", n) + strings.Repeat("END; ", n),
		"ref type": "TYPE T = " + strings.Repeat("REF ", n) + "INTEGER; BEGIN",
	}
	for name, body := range deep {
		_, err := Parse("deep.m3", "MODULE M; "+body+" END M.")
		if err == nil {
			t.Errorf("%s: %d levels parsed", name, n)
			continue
		}
		el := err.(ErrorList)
		last := el[len(el)-1]
		if !strings.Contains(last.Msg, "nesting deeper than") || last.Pos.Line != 1 || last.Pos.Col < 1 {
			t.Errorf("%s: last error %v, want a positioned nesting error", name, last)
		}
	}
}

// TestNestingCapBoundary pins where the cap falls: an assignment's
// right-hand side sits two levels deep, so MaxNesting-2 parentheses
// parse and one more is rejected at the token after the last "(".
func TestNestingCapBoundary(t *testing.T) {
	const prefix = "MODULE M; VAR x: INTEGER; BEGIN x := "
	src := func(k int) string {
		return prefix + strings.Repeat("(", k) + "1" + strings.Repeat(")", k) + "; END M."
	}
	if _, err := Parse("b.m3", src(MaxNesting-2)); err != nil {
		t.Fatalf("%d parentheses: %v", MaxNesting-2, err)
	}
	_, err := Parse("b.m3", src(MaxNesting-1))
	want := fmt.Sprintf("b.m3:1:%d: syntax error: nesting deeper than %d levels", len(prefix)+MaxNesting, MaxNesting)
	if got := errorLines(err); len(got) != 1 || got[0] != want {
		t.Errorf("%d parentheses: %q, want %q", MaxNesting-1, got, want)
	}
}

// TestProgramsStayFarBelowNestingCap parses the stock benchmarks and
// generated modules under a tenth of the cap.
func TestProgramsStayFarBelowNestingCap(t *testing.T) {
	srcs := map[string]string{
		"scale-20k": randprog.GenerateScale(1, randprog.ScaleConfigForLines(20_000)),
	}
	for _, b := range bench.All() {
		srcs[b.Name] = b.Source
	}
	for seed := int64(1); seed <= 20; seed++ {
		srcs[fmt.Sprintf("randprog-%d", seed)] = randprog.Generate(seed, randprog.DefaultConfig())
	}
	for name, src := range srcs {
		if _, err := parse(name, src, MaxNesting/10); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
