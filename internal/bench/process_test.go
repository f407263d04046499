package bench

import "testing"

func TestParseProcess(t *testing.T) {
	for name, want := range map[string]Process{
		"seq": Seq, "sequential": Seq, "par": Par, "parallel": Par,
		"unif": Unif, "uniform": Unif, "ctu": CTUnifTime, "ct-uniform": CTUnifTime,
		"ctseq": CTSeqTime, "ct-sequential": CTSeqTime,
	} {
		got, err := ParseProcess(name)
		if err != nil || got != want {
			t.Errorf("ParseProcess(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseProcess("bogus"); err == nil {
		t.Error("bogus process accepted")
	}
}
