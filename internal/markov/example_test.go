package markov_test

import (
	"fmt"

	"dispersion/internal/graph"
	"dispersion/internal/markov"
)

// Exact hitting times come from the Laplacian pseudo-inverse: on the path,
// H(0, k) = k².
func ExampleHitting_Hit() {
	g := graph.Path(10)
	h, err := markov.NewHitting(g)
	if err != nil {
		panic(err)
	}
	fmt.Printf("H(0,5) = %.0f\n", h.Hit(0, 5))
	fmt.Printf("H(0,9) = %.0f\n", h.Hit(0, 9))
	// Output:
	// H(0,5) = 25
	// H(0,9) = 81
}

// TreeHit computes exact tree hitting times in linear time from the
// essential-edge lemma: on the star, centre to leaf costs 2n-3.
func ExampleTreeHit() {
	g := graph.Star(10)
	fmt.Printf("H(centre, leaf) = %.0f\n", markov.TreeHit(g, 0, 3))
	fmt.Printf("H(leaf, centre) = %.0f\n", markov.TreeHit(g, 3, 0))
	// Output:
	// H(centre, leaf) = 17
	// H(leaf, centre) = 1
}
