package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dispersion/internal/graph"
)

// smoke is the scale used by tests: small but large enough that the
// qualitative claims (ratios, exponents, dominance) still hold.
var smoke = Config{Seed: 12345, Scale: 0.25}

// TestExperimentTables pins every experiment's verdict and the SHA-256 of
// its CSV table at the smoke configuration, and a digest of Table1's
// rows. The digests were recorded on amd64 before the samplers moved onto
// dispersion.Engine, so they also pin the Engine to the streams of the
// loop it replaced.
func TestExperimentTables(t *testing.T) {
	want := map[string]string{
		"E01":    "086b9ccff65c12cfb64a5eb28393f11ce6c5ba431e83c275962e6128592466c2",
		"E02":    "fbd0e8d7dda79dd6865d890254da57f18c4d65e82dea7f68007b9f75f882e506",
		"E03":    "06e837a248165fd7091abcfb444f9ba5e7efc180fe0e7ba98955fe4385e38a45",
		"E04":    "ee6ca6a1907503c72f1e4a1b47f71bb9949fbdcd7ab43a49e20501535612439a",
		"E05":    "a35ed7484bd44c3b0a856985a23e32ea06a38a5a0f7dab9b0d06de22d7eff94f",
		"E06":    "ec6e40413c166667e541e67e8164998ad59556ad98de899fd55cd9e14a63a557",
		"E07":    "3da55f0821f43d36ad51abda2859a3e519ae88f0daf7e03cd110eb4e691b1242",
		"E08":    "190ba23cf7183583ffe730ccec9b3abecb0a8bcfeb328ffb59af0db27bb6f573",
		"E09":    "3151da99629422c12f0770e58cc6a0f491735d2a3fadb2b16750a5f08ce447bd",
		"E10":    "c0ae33dacdb74b7bdaf51319f8997388b8e3a4cf7cedc34b2cef1d6fde377378",
		"E11":    "5f6572b09ef01f2935a58c440d60c3d5d66bd9229473bf390bd49dc510e0a02f",
		"E12":    "726ddeeefae8c4fb5c786a9eaf966928cf804927db20a836fc3ff3ae80b85803",
		"E13":    "4d73c734e12c4dde4c479a5c503776e20d9005164925c6dfd591ac7d88f8946d",
		"E14":    "2ac401b499055848ad88ab19ffa268830be56bf7842b2c77c9ca14a76fe4292c",
		"E15":    "489869fbb57c7237c0d62db2277887f0e03a6b4b6dd8bd07fa4cf26701bbc9c2",
		"E16":    "14c89f1de46f9f7698799d0729c65a7f955e6b5376e979ee187690ad955a8cc8",
		"E17":    "164d8c55948cae4490b322d82c6baa94e8f36348fd551590841785794a768066",
		"E18":    "8e2927c645ecb5eb9f4a464b6c70d1cb2a40b7f9d855013b20728b4fd35c180d",
		"E19":    "c6f439e2d8baa4b7cd00c3c653c23c103d4d26a688b803bc9ec62a9d7a9e728b",
		"E20":    "73ae1eec1f711714cf145b503078f8da1897191c168435790fa7316be03e1809",
		"E21":    "cf511142663193d1345fc4cbbc9d83d89c1113c10f091a275f46f35b1d6f648f",
		"E22":    "36be07cb899d83376134745148726012d4a3ca55d2416c997d676f3805e50be0",
		"E23":    "1ce7aefcfd1504db469eabcdcef46808df3ccfb777833b7e42f822fa56d89106",
		"E24":    "d1595d4fa99a2261f568fa6f8c49a65a6f5c7c9b3b267a4ec55f3262549bc5de",
		"table1": "6eb40f01402b2c9e47a821f707ee23246d04ca2da3010c040a9562405c3fbcb5",
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			rep, err := e.Run(smoke)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Pass || rep.Summary == "" || len(rep.Table.Rows) == 0 {
				t.Errorf("%s: verdict %v, summary %q, %d table rows", e.ID, rep.Pass, rep.Summary, len(rep.Table.Rows))
			}
			var buf bytes.Buffer
			if err := rep.Table.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want[e.ID] {
				t.Errorf("%s table digest %s, want %s", e.ID, got, want[e.ID])
			}
		})
	}
	t.Run("table1", func(t *testing.T) {
		t.Parallel()
		rows, err := Table1(smoke)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, r := range rows {
			fmt.Fprintf(h, "%+v\n", r)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want["table1"] {
			t.Errorf("Table1 digest %s, want %s", got, want["table1"])
		}
	})
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 24 {
		t.Fatalf("registry has %d experiments, want 24 (E01..E24)", len(all))
	}
	for i, e := range all {
		want := []string{"E01", "E02", "E03", "E04", "E05", "E06", "E07", "E08", "E09",
			"E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19",
			"E20", "E21", "E22", "E23", "E24"}[i]
		if e.ID != want {
			t.Errorf("experiment %d has ID %s, want %s", i, e.ID, want)
		}
		if e.Title == "" || e.Source == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("%s: incomplete metadata", e.ID)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("E99"); ok {
		t.Fatal("unknown experiment found")
	}
	if _, ok := Get("E01"); !ok {
		t.Fatal("E01 missing")
	}
}

func TestTableWriteCSV(t *testing.T) {
	tbl := &Table{Columns: []string{"a", "b"}}
	tbl.AddRow("1", "x,y")
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "a,b\n") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, `"x,y"`) {
		t.Fatalf("comma cell not quoted: %q", out)
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{Columns: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "333") {
		t.Fatalf("bad render:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 4 {
		t.Fatalf("want header+rule+2 rows:\n%s", out)
	}
}

func TestScaled(t *testing.T) {
	c := Config{Scale: 0.1}
	if got := c.scaled(100, 5); got != 10 {
		t.Fatalf("scaled(100) at 0.1 = %d", got)
	}
	if got := c.scaled(20, 5); got != 5 {
		t.Fatalf("floor not applied: %d", got)
	}
	c = Config{} // zero scale treated as 1
	if got := c.scaled(100, 5); got != 100 {
		t.Fatalf("zero scale should mean full: %d", got)
	}
}

func TestSamplersDeterministic(t *testing.T) {
	g := graph.Complete(16)
	cfg := Config{Seed: 7}
	a, errA := cfg.sample(g, 0, "sequential", 16, 9)
	b, errB := cfg.sample(g, 0, "sequential", 16, 9)
	c, errC := cfg.sample(g, 0, "sequential", 16, 10)
	if errA != nil || errB != nil || errC != nil {
		t.Fatal(errA, errB, errC)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sampler not deterministic")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different experiment IDs produced identical samples")
	}
	if _, err := cfg.sample(g, 0, "bogus", 16, 9); err == nil {
		t.Fatal("unknown process sampled without an error")
	}
}

func TestTable1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("table1 is slow; run without -short")
	}
	rows, err := Table1(smoke)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("table1 has %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Tpar < r.Tseq*0.8 {
			t.Errorf("%s: t_par %.0f far below t_seq %.0f (violates Theorem 4.1 trend)",
				r.Family, r.Tpar, r.Tseq)
		}
		if r.Hit <= 0 || r.Cover <= 0 {
			t.Errorf("%s: degenerate analytics", r.Family)
		}
		// Dispersion cannot beat... cover time relates loosely; at least
		// check the Theorem 3.1 style ceiling massively holds.
		if r.Tpar > 6*r.Hit*20 {
			t.Errorf("%s: t_par %.0f implausibly above hitting scale", r.Family, r.Tpar)
		}
	}
	var buf bytes.Buffer
	RenderTable1(rows, &buf)
	if !strings.Contains(buf.String(), "hypercube") {
		t.Error("render missing families")
	}
}

func TestRunAllQuickSubset(t *testing.T) {
	// RunAll plumbing: run a tiny private registry through the renderer.
	var buf bytes.Buffer
	e, _ := Get("E18")
	rep, err := e.Run(smoke)
	if err != nil {
		t.Fatal(err)
	}
	rep.Table.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}
