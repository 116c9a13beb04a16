package schedeval

import (
	"reflect"
	"strings"
	"testing"
)

// fuzzNodes is the machine size the fuzzed jobs are validated against:
// large enough that any size the format can carry in practice is legal.
const fuzzNodes = 1 << 20

// FuzzParseTraceFull checks the trace parser on arbitrary input. Malformed
// text must come back as an error, never a panic. Text it accepts, with
// every job valid, must survive a FormatTraceFull/ParseTraceFull round
// trip unchanged: the jobs, crashes and repairs parse back deep-equal.
// The seed corpus is in testdata/fuzz/FuzzParseTraceFull.
func FuzzParseTraceFull(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		jobs, crashes, repairs, err := ParseTraceFull(strings.NewReader(text))
		if err != nil {
			return
		}
		for _, j := range jobs {
			if j.Validate(fuzzNodes) != nil {
				return
			}
		}
		var b strings.Builder
		if err := FormatTraceFull(&b, jobs, crashes, repairs); err != nil {
			t.Fatal(err)
		}
		backJobs, backCrashes, backRepairs, err := ParseTraceFull(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("formatted trace does not parse: %v\n%s", err, b.String())
		}
		if !reflect.DeepEqual(backJobs, jobs) || !reflect.DeepEqual(backCrashes, crashes) ||
			!reflect.DeepEqual(backRepairs, repairs) {
			t.Fatalf("round trip changed the trace:\n%q\nformatted as\n%s", text, b.String())
		}
	})
}
