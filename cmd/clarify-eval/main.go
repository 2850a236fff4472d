// Command clarify-eval regenerates every table and figure of the paper's
// evaluation: the Section 3 overlap measurements over the synthetic corpora,
// the Figure 4 incremental-synthesis statistics with global-policy
// validation, and the Section 4 question-complexity ablation.
//
// Usage:
//
//	clarify-eval -exp all                 # everything, scaled-down corpora
//	clarify-eval -exp campus-acl -full    # the paper's full 11,088-ACL corpus
//	clarify-eval -exp figure4
//	clarify-eval -exp questions
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/clarifynet/clarify/exper"
	"github.com/clarifynet/clarify/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clarify-eval", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp  = fs.String("exp", "all", "experiment: cloud-acl, cloud-rm, campus-acl, campus-rm, figure4, questions, verify, all")
		seed = fs.Int64("seed", 1, "corpus seed")
		full = fs.Bool("full", false, "use the paper's full corpus sizes (slower)")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	sizes := map[string]int{
		"cloud-acl":  80,
		"cloud-rm":   120,
		"campus-acl": 400,
		"campus-rm":  169,
	}
	if *full {
		sizes["cloud-acl"] = workload.CloudACLCount
		sizes["cloud-rm"] = workload.CloudRouteMapCount
		sizes["campus-acl"] = workload.CampusACLCount
		sizes["campus-rm"] = workload.CampusRouteMapCount
	}

	experiment := func(name string) error {
		switch name {
		case "cloud-acl":
			fmt.Fprintf(stdout, "(corpus: %d ACLs, seed %d)\n", sizes[name], *seed)
			exper.WriteCloudACLTable(stdout, exper.CloudACLExperiment(*seed, sizes[name]))
		case "cloud-rm":
			fmt.Fprintf(stdout, "(corpus: %d route-maps, seed %d)\n", sizes[name], *seed)
			agg, err := exper.CloudRouteMapExperiment(*seed, sizes[name])
			if err != nil {
				return err
			}
			exper.WriteCloudRMTable(stdout, agg)
		case "campus-acl":
			fmt.Fprintf(stdout, "(corpus: %d ACLs, seed %d)\n", sizes[name], *seed)
			exper.WriteCampusACLTable(stdout, exper.CampusACLExperiment(*seed, sizes[name]))
		case "campus-rm":
			fmt.Fprintf(stdout, "(corpus: %d route-maps, seed %d)\n", sizes[name], *seed)
			agg, err := exper.CampusRouteMapExperiment(*seed, sizes[name])
			if err != nil {
				return err
			}
			exper.WriteCampusRMTable(stdout, agg)
		case "figure4":
			if err := exper.Figure4(context.Background(), stdout); err != nil {
				return err
			}
		case "verify":
			rows, err := exper.VerifyAblation(context.Background())
			if err != nil {
				return err
			}
			exper.WriteVerifyAblation(stdout, rows)
		case "questions":
			binary, linear, err := exper.QuestionComplexity([]int{1, 2, 3, 7, 15, 31, 63, 127})
			if err != nil {
				return err
			}
			exper.WriteQuestionTable(stdout, binary, linear)
		default:
			return errUnknownExperiment
		}
		fmt.Fprintln(stdout)
		return nil
	}

	names := []string{"cloud-acl", "cloud-rm", "campus-acl", "campus-rm", "figure4", "questions", "verify"}
	if *exp != "all" {
		names = []string{*exp}
	}
	for _, name := range names {
		if err := experiment(name); err == errUnknownExperiment {
			fmt.Fprintf(stderr, "clarify-eval: unknown experiment %q\n", name)
			return 2
		} else if err != nil {
			fmt.Fprintln(stderr, "clarify-eval:", err)
			return 1
		}
	}
	return 0
}

var errUnknownExperiment = errors.New("unknown experiment")
