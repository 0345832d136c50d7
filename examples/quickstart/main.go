// Quickstart walks the paper's running example end to end: compile the
// strchr function, produce static estimates, profile two real calls, and
// compare the two with the weight-matching metric — reproducing Table 2
// and Figures 3, 6, and 7 from a dozen lines of API.
package main

import (
	"fmt"
	"log"
	"strings"

	"staticest"
	"staticest/internal/cast"
	"staticest/internal/metric"
)

const src = `
#define NULL 0
/* Find first occurrence of a character in a string. */
char *my_strchr(char *str, int c) {
	while (*str) {
		if (*str == c)
			return str;
		str++;
	}
	return NULL;
}
int main(void) {
	my_strchr("abc", 'a');
	my_strchr("abc", 'b');
	return 0;
}
`

func main() {
	// 1. Compile: parse, type-check, build CFGs and the call graph.
	unit, err := staticest.Compile("strchr.c", []byte(src))
	if err != nil {
		log.Fatal(err)
	}

	// 2. Static estimates — no execution involved.
	est := unit.Estimate()
	fmt.Println("AST annotated with the smart heuristic's estimated counts:")
	freq := est.StmtFreqOf(unit.CFG.Graphs[0])
	var tree strings.Builder
	cast.FprintTree(&tree, unit.Sem.Funcs[0], func(s cast.Stmt) string {
		if f, ok := freq.Of(s); ok {
			return fmt.Sprintf("%.1f", f)
		}
		return ""
	})
	fmt.Println(tree.String())

	// 3. Profile: run the program under the interpreter.
	res, err := unit.Run(staticest.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Compare estimate to profile with Wall's weight-matching metric.
	estimate := est.IntraSmart[0].BlockFreq
	markov := est.IntraMarkov[0].BlockFreq
	actual := res.Profile.BlockCounts[0]

	fmt.Println("block          estimate   markov   actual")
	for _, blk := range unit.CFG.Graphs[0].Blocks {
		fmt.Printf("%-12s %10.1f %8.2f %8.0f\n",
			blk.Name, estimate[blk.ID], markov[blk.ID], actual[blk.ID])
	}
	fmt.Printf("\nweight-matching score at 20%% cutoff: %.0f%%\n",
		100*metric.WeightMatch(estimate, actual, 0.20))
	fmt.Printf("weight-matching score at 60%% cutoff: %.1f%%\n",
		100*metric.WeightMatch(estimate, actual, 0.60))
}
