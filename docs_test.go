package clustersim_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docCommands are the commands whose flags the documents quote.
var docCommands = []string{"clustersim", "paperfigs", "simfleet", "simprof", "simlint"}

var (
	docFlagRE   = regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9-]*)(=.*)?$`)
	usageFlagRE = regexp.MustCompile(`(?m)^  -([A-Za-z0-9-]+)`)
)

// definedFlags builds the command and reads its flag set off its -h output.
func definedFlags(t *testing.T, dir, name string) map[string]bool {
	t.Helper()
	bin := filepath.Join(dir, name)
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, out)
	}
	usage, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits non-zero
	flags := map[string]bool{"h": true, "help": true}
	for _, m := range usageFlagRE.FindAllStringSubmatch(string(usage), -1) {
		flags[m[1]] = true
	}
	if len(flags) == 2 {
		t.Fatalf("%s -h lists no flags:\n%s", name, usage)
	}
	return flags
}

// commandOf reports which of the commands a token names, with or without a
// directory (./cmd/simprof, /tmp/clustersim) or a build prefix
// (parent-clustersim).
func commandOf(tok string) string {
	tok = tok[strings.LastIndexByte(tok, '/')+1:]
	for _, c := range docCommands {
		if tok == c || strings.HasSuffix(tok, "-"+c) {
			return c
		}
	}
	return ""
}

// docFlag is one -flag token a document quotes: on the command line of the
// named command, or — command empty — in an argument list quoted on its own.
type docFlag struct {
	name, command string
}

// codeFlags extracts the flag tokens of one piece of code — an inline span or
// a line of a fenced block. Tokens after a command's name are that command's,
// up to a shell separator. A piece that opens with a flag is an argument list
// quoted on its own; flags of any other program (go test -race, curl -s)
// belong to nobody here.
func codeFlags(code string) []docFlag {
	var out []docFlag
	toks := strings.Fields(code)
	const wrap = "`'\",.;:()[]"
	bare := len(toks) > 0 && docFlagRE.MatchString(strings.Trim(toks[0], wrap))
	var cmd string
	for _, raw := range toks {
		if raw == "|" || raw == "||" || raw == "&&" || raw == ";" || strings.HasPrefix(raw, ">") {
			cmd = ""
			continue
		}
		tok := strings.Trim(raw, wrap)
		if c := commandOf(tok); c != "" {
			cmd, bare = c, false
			continue
		}
		if m := docFlagRE.FindStringSubmatch(tok); m != nil && (cmd != "" || bare) {
			out = append(out, docFlag{m[1], cmd})
		}
		if strings.HasSuffix(raw, ";") {
			cmd = ""
		}
	}
	return out
}

// TestDocRecipes: every -flag token on a clustersim, paperfigs, simfleet,
// simprof or simlint command line in the documents — fenced blocks and inline
// code — is a flag that command defines, and a flag quoted on its own is a
// flag of at least one of them, so a recipe cannot outlive the flag it uses.
func TestDocRecipes(t *testing.T) {
	dir := t.TempDir()
	defined := map[string]map[string]bool{}
	for _, c := range docCommands {
		defined[c] = definedFlags(t, dir, c)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		check := func(line int, code string) {
			for _, f := range codeFlags(code) {
				ok := defined[f.command][f.name]
				for _, c := range docCommands {
					ok = ok || f.command == "" && defined[c][f.name]
				}
				if owner := f.command; !ok {
					if owner == "" {
						owner = "any command"
					}
					t.Errorf("%s:%d: -%s is not a flag of %s", doc, line, f.name, owner)
				}
			}
		}
		// Fenced blocks line by line; what is left is prose, whose inline
		// spans may wrap lines.
		lines := strings.Split(string(text), "\n")
		fenced := false
		for i, line := range lines {
			fence := strings.HasPrefix(strings.TrimSpace(line), "```")
			if fence {
				fenced = !fenced
			} else if fenced {
				check(i+1, line)
			}
			if fence || fenced {
				lines[i] = ""
			}
		}
		line := 1
		for k, piece := range strings.Split(strings.Join(lines, "\n"), "`") {
			if k%2 == 1 {
				check(line, piece)
			}
			line += strings.Count(piece, "\n")
		}
	}
}
