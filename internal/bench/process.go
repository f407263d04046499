package bench

import "fmt"

// ParseProcess maps a CLI name to a Process.
func ParseProcess(name string) (Process, error) {
	switch name {
	case "seq", "sequential":
		return Seq, nil
	case "par", "parallel":
		return Par, nil
	case "unif", "uniform":
		return Unif, nil
	case "ctu", "ct-uniform":
		return CTUnifTime, nil
	case "ctseq", "ct-sequential":
		return CTSeqTime, nil
	}
	return 0, fmt.Errorf("bench: unknown process %q (want seq|par|unif|ctu|ctseq)", name)
}
