package simlint

import (
	"slices"
	"testing"
)

// TestSuite pins the suite and the directive names it reads. A name outside
// this list — a typo, or the annotation of a deleted analyzer such as
// hotalloc's //simlint:hotalloc and //simlint:hotpath — is reported at the
// directive by every run, so it cannot linger in the tree.
func TestSuite(t *testing.T) {
	var names, directives []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
		directives = append(directives, a.Directives...)
	}
	if want := []string{"nodetsource", "maporder", "guestwall", "errdiscard"}; !slices.Equal(names, want) {
		t.Errorf("analyzers %v, want %v", names, want)
	}
	slices.Sort(directives)
	if want := []string{"errdiscard", "guestwall", "maporder", "nodetsource", "wallclock"}; !slices.Equal(directives, want) {
		t.Errorf("directive names %v, want %v", directives, want)
	}
}
