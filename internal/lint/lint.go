// Package lint implements the source-level half of the paper's
// design-time RTSJ conformance story: whereas internal/validate checks
// the *architecture* (the ADL model) and internal/rtsj/memory enforces
// the assignment rules *dynamically* (generation tags), this package
// analyzes the Go component code itself and moves the same classes of
// runtime fault — IllegalAssignmentError, MemoryAccessError, heap
// access from a no-heap thread, unbounded blocking inside a
// run-to-completion section — to compile time.
//
// The package is deliberately shaped like golang.org/x/tools/go/analysis
// (Analyzer, Pass, analysistest-style corpora) but is built on the
// standard library only: packages are loaded through `go list -export`
// and type-checked against gc export data, so the suite runs offline
// with nothing but the Go toolchain.
//
// Two analyzer families ship today, each pass owning one SA rule id in
// the validate.Diagnostic vocabulary. The per-function passes look at
// one package at a time:
//
//	SA01 noheapalloc  heap allocation reachable from a no-heap path
//	SA02 scoperef     scoped reference stored into longer-lived state
//	SA03 rtblock      unbounded blocking inside run-to-completion code
//	SA04 archconform  code vs ADL drift (registrations, activation kinds)
//
// The whole-architecture passes (soleil vet -arch) fuse the ADL
// architecture, the deployment descriptor and the typed ASTs of every
// registered implementation into one model (ArchFacts) and analyze
// the composed system:
//
//	SA05 bindingcycle   synchronous-binding wait cycles (static deadlock)
//	SA06 lockorder      inconsistent mutex acquisition order in content code
//	SA07 membranebypass mutable state handed across a binding by reference
//	SA08 costbound      implementation cost vs the ADL cost= budget
//	SA09 flowlatency    end-to-end worst-case latency vs contract budgets
//	SA10 queuesizing    admitted rate vs capacity, statically-overflowing buffers
//	SA11 spawnleak      unbounded goroutines spawned from membrane-reachable code
//
// Since PR 9 the passes share an interprocedural engine (summary.go):
// a call graph over all loaded packages plus per-function effect
// summaries (allocations, blocking, locks, spawns, CPU lower bound)
// computed bottom-up over SCCs, so SA01/SA03/SA06/SA08 see one or more
// calls deep — including across packages and through unique-target
// interface dispatch — and findings carry the call chain (rendered as
// SARIF codeFlows). Summaries are serialized to a content-hashed facts
// cache (cache.go) so warm `soleil vet -arch` runs skip recomputation.
//
// Source annotations:
//
//	//soleil:noheap               marks a function as a no-heap root (SA01)
//	//soleil:rtc                  marks a function as run-to-completion (SA03)
//	//soleil:cost 250us           declares a function's CPU cost (SA08)
//	//soleil:pure                 trusts a function to be effect-free and zero-cost
//	//soleil:ignore SAxx[,SAyy] why   suppresses findings on this or the next line
//
// The ignore directive names one or more comma-separated rule ids;
// unknown ids are themselves reported (rule SA00) instead of silently
// suppressing nothing — or worse, everything. Directives that never
// suppress anything during a run that exercised every rule they name
// are reported as SA00 Info findings, so stale ignores cannot rot in
// place.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"soleil/internal/model"
	"soleil/internal/validate"
)

// An Analyzer describes one source-level conformance pass.
type Analyzer struct {
	// Name is the short pass name (e.g. "noheapalloc").
	Name string
	// Rule is the diagnostic rule id the pass owns (e.g. "SA01").
	Rule string
	// Doc is the one-paragraph description printed by `soleil vet -help`.
	Doc string
	// Run performs the pass over one package.
	Run func(*Pass) error
}

// All is the per-function analyzer suite in rule order. The
// whole-architecture passes live in AllArch.
func All() []*Analyzer {
	return []*Analyzer{NoHeapAlloc, ScopeRef, RTBlock, ArchConform}
}

// ByName resolves a comma-separated analyzer selection.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// RuleDocs maps every rule id in the suite (per-function and
// whole-architecture) to the first line of its analyzer's Doc — the
// one-liner SARIF export emits as rule metadata.
func RuleDocs() map[string]string {
	docs := map[string]string{}
	add := func(rule, doc string) {
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		docs[rule] = strings.TrimSuffix(strings.TrimSpace(doc), ".")
	}
	for _, a := range All() {
		add(a.Rule, a.Doc)
	}
	for _, a := range AllArch() {
		add(a.Rule, a.Doc)
	}
	add("SA00", "validates //soleil:ignore directives: malformed ones and ones whose excused finding is gone")
	return docs
}

// KnownRules is the set of rule ids a //soleil:ignore directive may
// name: every per-function and whole-architecture pass, plus SA00
// (the directive-validation rule itself). The set is spelled out
// rather than derived from All()/AllArch() — the directive parser runs
// during analyzer construction, and deriving it would create an
// initialization cycle; TestKnownRulesCoverSuite keeps it honest.
func KnownRules() map[string]bool {
	return map[string]bool{
		"SA00": true, "SA01": true, "SA02": true, "SA03": true, "SA04": true,
		"SA05": true, "SA06": true, "SA07": true, "SA08": true,
		"SA09": true, "SA10": true, "SA11": true,
	}
}

// A Finding is one source-level diagnostic before it is rendered into
// the shared validate.Diagnostic form.
type Finding struct {
	Pos        token.Pos
	Rule       string
	Severity   validate.Severity
	Subject    string // enclosing function or content class
	Message    string
	Suggestion string
	// PosStr, when set, overrides Pos at render time. Findings spliced
	// from cached summaries carry rendered positions (the cache has no
	// FileSet to resolve against).
	PosStr string
	// Flow is the call chain (or binding path) from the analysis entry
	// point to the offending site; SARIF export renders it as a
	// codeFlow.
	Flow []validate.FlowStep
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Arch is the ADL model supplied via -adl; nil when absent
	// (analyzers that need it skip themselves).
	Arch *model.Architecture
	// Eng is the interprocedural summary engine over the whole load;
	// nil in engine-less runs (vet-tool unit mode), in which case the
	// passes fall back to intraprocedural reasoning.
	Eng *Engine

	findings []Finding
	supp     *suppressionIndex
}

type suppressed struct {
	pos   token.Pos
	line  int
	rules map[string]bool
	used  bool
}

// A suppressionIndex is the parsed //soleil:ignore directives of one
// package, built once and shared by every pass over it (and by the
// summary engine), plus the SA00 findings for directives that failed
// to parse. Directives are pointers so a "used" mark set by any
// consumer is seen by the unused-suppression report.
type suppressionIndex struct {
	byFile map[string][]*suppressed // filename -> directives
	bad    []Finding                // SA00: malformed or unknown-rule directives
}

// Report records a finding unless a //soleil:ignore comment on the
// finding's line (or the line above it) suppresses the rule.
func (p *Pass) Report(f Finding) {
	if f.Rule == "" {
		f.Rule = p.Analyzer.Rule
	}
	if p.isSuppressed(f) {
		return
	}
	p.findings = append(p.findings, f)
}

// Reportf formats and records a finding.
func (p *Pass) Reportf(pos token.Pos, sev validate.Severity, subject, suggestion, format string, args ...any) {
	p.Report(Finding{
		Pos: pos, Severity: sev, Subject: subject,
		Suggestion: suggestion, Message: fmt.Sprintf(format, args...),
	})
}

func (p *Pass) isSuppressed(f Finding) bool {
	if p.supp == nil {
		p.supp = buildSuppressionIndex(p.Fset, p.Files)
	}
	return p.supp.suppresses(p.Fset, f)
}

func (s *suppressionIndex) suppresses(fset *token.FileSet, f Finding) bool {
	return s.suppressesPosition(fset.Position(f.Pos), f.Rule)
}

// suppressesPosition is the rendered-position form shared with the
// summary engine; a match marks the directive used.
func (s *suppressionIndex) suppressesPosition(pos token.Position, rule string) bool {
	for _, d := range s.byFile[pos.Filename] {
		if d.line != pos.Line && d.line != pos.Line-1 {
			continue
		}
		if d.rules[rule] {
			d.used = true
			return true
		}
	}
	return false
}

// usedAt renders the positions of every used directive — the facts
// cache records them so warm runs replay the marks.
func (s *suppressionIndex) usedAt(fset *token.FileSet) []string {
	var out []string
	for _, ds := range s.byFile {
		for _, d := range ds {
			if d.used {
				out = append(out, fset.Position(d.pos).String())
			}
		}
	}
	sort.Strings(out)
	return out
}

// markUsed replays recorded used-directive positions from a warm
// cache entry.
func (s *suppressionIndex) markUsed(fset *token.FileSet, positions map[string]bool) {
	for _, ds := range s.byFile {
		for _, d := range ds {
			if positions[fset.Position(d.pos).String()] {
				d.used = true
			}
		}
	}
}

// unused reports the directives that suppressed nothing, restricted to
// directives whose every named rule was actually exercised (ran) this
// invocation — a directive naming a rule whose analyzer did not run is
// unproven, not stale.
func (s *suppressionIndex) unused(ran map[string]bool) []Finding {
	var out []Finding
	for _, ds := range s.byFile {
		for _, d := range ds {
			if d.used {
				continue
			}
			covered := true
			var names []string
			for r := range d.rules {
				names = append(names, r)
				if !ran[r] {
					covered = false
				}
			}
			if !covered {
				continue
			}
			sort.Strings(names)
			out = append(out, Finding{
				Pos: d.pos, Rule: "SA00", Severity: validate.Info,
				Subject: "//soleil:ignore",
				Message: fmt.Sprintf("//soleil:ignore %s suppresses nothing: the finding it excused is gone",
					strings.Join(names, ",")),
				Suggestion: "delete the stale suppression",
			})
		}
	}
	return out
}

var ignoreRE = regexp.MustCompile(`^//\s*soleil:ignore\b(.*)`)

// buildSuppressionIndex parses every //soleil:ignore directive in the
// files. A directive names one or more comma-separated rule ids
// followed by a justification: `//soleil:ignore SA05,SA06 reason`.
// Directives with no rule list, or naming a rule id the suite does not
// own, suppress nothing and are reported under rule SA00 — a silent
// typo in a suppression is how a real finding disappears.
func buildSuppressionIndex(fset *token.FileSet, files []*ast.File) *suppressionIndex {
	idx := &suppressionIndex{byFile: map[string][]*suppressed{}}
	known := KnownRules()
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				bad := func(format string, args ...any) {
					idx.bad = append(idx.bad, Finding{
						Pos: c.Pos(), Rule: "SA00", Severity: validate.Error,
						Subject:    "//soleil:ignore",
						Message:    fmt.Sprintf(format, args...),
						Suggestion: "name the rules to suppress, e.g. //soleil:ignore SA03 bounded by the RTC section",
					})
				}
				fields := strings.Fields(m[1])
				if len(fields) == 0 {
					bad("//soleil:ignore names no rule; the directive suppresses nothing")
					continue
				}
				s := &suppressed{
					pos:   c.Pos(),
					line:  fset.Position(c.Pos()).Line,
					rules: map[string]bool{},
				}
				ok := true
				for _, id := range strings.Split(fields[0], ",") {
					canon := strings.ToUpper(strings.TrimSpace(id))
					if canon == "" || !known[canon] {
						bad("//soleil:ignore names unknown rule id %q; the directive suppresses nothing", id)
						ok = false
						break
					}
					s.rules[canon] = true
				}
				if !ok {
					continue
				}
				name := fset.Position(c.Pos()).Filename
				idx.byFile[name] = append(idx.byFile[name], s)
			}
		}
	}
	return idx
}

// directive reports whether fn's doc comment carries the given
// //soleil: directive (e.g. "noheap", "rtc").
func directive(fn *ast.FuncDecl, name string) bool {
	_, ok := directiveArg(fn, name)
	return ok
}

// directiveArg returns the argument text of fn's //soleil:<name>
// directive ("" when the directive is bare) and whether the directive
// is present at all.
func directiveArg(fn *ast.FuncDecl, name string) (string, bool) {
	if fn == nil || fn.Doc == nil {
		return "", false
	}
	want := "//soleil:" + name
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == want {
			return "", true
		}
		if strings.HasPrefix(text, want+" ") {
			return strings.TrimSpace(strings.TrimPrefix(text, want+" ")), true
		}
	}
	return "", false
}

// funcName renders a function's display name, including the receiver
// for methods.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	return fmt.Sprintf("(%s).%s", typeText(recv), fn.Name.Name)
}

func typeText(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + typeText(t.X)
	case *ast.IndexExpr:
		return typeText(t.X)
	case *ast.SelectorExpr:
		return typeText(t.X) + "." + t.Sel.Name
	default:
		return fmt.Sprintf("%T", e)
	}
}

// receiverObj returns the receiver variable object of a method
// declaration, or nil for plain functions and unnamed receivers.
func receiverObj(info *types.Info, fn *ast.FuncDecl) *types.Var {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return nil
	}
	v, _ := info.Defs[fn.Recv.List[0].Names[0]].(*types.Var)
	return v
}
