// Command clarify is the interactive front end of the Clarify pipeline
// (Figure 1 of the paper): it loads an existing configuration, reads
// natural-language intents, synthesizes and verifies configuration snippets
// with an LLM, and interactively disambiguates where each new rule belongs.
//
// Usage:
//
//	clarify -config isp.cfg -target ISP_OUT [-llm sim|http] [flags] < intents.txt
//
// With -llm sim (the default) the deterministic simulated LLM is used and no
// network access is needed. With -llm http, -base-url and -model select an
// OpenAI-compatible endpoint; the API key is read from $CLARIFY_API_KEY.
// The endpoint runs behind the same resilience.Stack as clarifyd's: each
// completion is retried on 429, 5xx and transport errors, a circuit breaker
// stops calling an endpoint that keeps failing, and -fallback-sim degrades
// to the simulated LLM instead of failing (updates that used it are
// flagged).
//
// With -remote http://host:port the pipeline runs inside a clarifyd daemon
// instead of in-process: the CLI creates a remote session from the config,
// submits each intent over HTTP, and relays the daemon's disambiguation
// questions to the interactive prompt.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/clarifynet/clarify"
	"github.com/clarifynet/clarify/disambig"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/journal"
	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/resilience"
	"github.com/clarifynet/clarify/server"
)

// cliOptions collects the in-process run's configuration.
type cliOptions struct {
	configPath string
	target     string
	llmKind    string
	baseURL    string
	model      string
	outPath    string
	// trace receives the legacy line-per-step rendering (-v).
	trace io.Writer
	// traceJSON, when non-empty, is a file that receives one JSON span tree
	// per update (JSONL).
	traceJSON string
	// simFaults is a comma-separated fault plan for the simulated LLM, e.g.
	// "wrong-value,syntax" — each synthesis call consumes one entry.
	simFaults string
	// fallbackSim degrades http-backend failures onto the simulated LLM.
	fallbackSim bool
	// journalDir, when non-empty, appends one flight-recorder record per
	// update there (see the journal package and cmd/clarify-replay).
	journalDir string
}

func main() {
	var (
		configPath = flag.String("config", "", "path to the existing IOS configuration (required)")
		target     = flag.String("target", "", "route-map or ACL name to update (required)")
		llmKind    = flag.String("llm", "sim", "LLM backend: sim or http")
		baseURL    = flag.String("base-url", "https://api.openai.com/v1", "OpenAI-compatible API root (http backend)")
		model      = flag.String("model", "gpt-4", "model identifier (http backend)")
		outPath    = flag.String("o", "", "write the updated configuration here (default: stdout)")
		remote     = flag.String("remote", "", "drive a running clarifyd at this base URL instead of an in-process session")
		traceJSON  = flag.String("trace-json", "", "append one JSON span tree per update to this file")
		simFaults  = flag.String("sim-faults", "", "comma-separated fault plan for the sim LLM (wrong-value, widen-mask, drop-match, flip-action, syntax, none)")
		fbSim      = flag.Bool("fallback-sim", false, "degrade to the simulated LLM when the http backend fails")
		journalDir = flag.String("journal", "", "append one flight-recorder record per update to this directory (replayable with clarify-replay)")
		verbose    = flag.Bool("v", false, "trace pipeline steps to stderr")
	)
	flag.Parse()
	if *configPath == "" || *target == "" {
		flag.Usage()
		os.Exit(2)
	}
	var trace io.Writer
	if *verbose {
		trace = os.Stderr
	}
	var err error
	if *remote != "" {
		err = runRemote(*remote, *configPath, *target, *outPath, os.Stdin, os.Stdout)
	} else {
		err = run(cliOptions{
			configPath:  *configPath,
			target:      *target,
			llmKind:     *llmKind,
			baseURL:     *baseURL,
			model:       *model,
			outPath:     *outPath,
			trace:       trace,
			traceJSON:   *traceJSON,
			simFaults:   *simFaults,
			fallbackSim: *fbSim,
			journalDir:  *journalDir,
		}, os.Stdin, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "clarify:", err)
		os.Exit(1)
	}
}

func run(opts cliOptions, stdin io.Reader, out io.Writer) error {
	data, err := os.ReadFile(opts.configPath)
	if err != nil {
		return err
	}
	cfg, err := ios.Parse(string(data))
	if err != nil {
		return err
	}
	faults, err := llm.ParseFaultPlan(opts.simFaults)
	if err != nil {
		return fmt.Errorf("-sim-faults: %w", err)
	}

	var client llm.Client
	switch opts.llmKind {
	case "sim":
		if opts.fallbackSim {
			return fmt.Errorf("-fallback-sim requires -llm http")
		}
		client = llm.NewSimLLM(faults...)
	case "http":
		var fallback llm.Client
		if opts.fallbackSim {
			fallback = llm.NewSimLLM(faults...)
		}
		client = resilience.NewHTTPStack(opts.baseURL, opts.model, os.Getenv("CLARIFY_API_KEY"), fallback, nil)
	default:
		return fmt.Errorf("unknown -llm backend %q", opts.llmKind)
	}

	var observer obs.Sink
	if opts.traceJSON != "" {
		f, err := os.OpenFile(opts.traceJSON, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		observer = obs.NewJSONWriter(f)
	}

	var jnl *journal.Journal
	if opts.journalDir != "" {
		jnl, err = journal.Open(journal.Options{Dir: opts.journalDir})
		if err != nil {
			return err
		}
		defer jnl.Close()
	}

	in := bufio.NewScanner(stdin)
	oracle := &consoleOracle{in: in, out: out}
	session := &clarify.Session{
		Client:         client,
		Config:         cfg,
		RouteOracle:    oracle,
		ACLOracle:      oracle,
		Trace:          opts.trace,
		Observer:       observer,
		Journal:        jnl,
		JournalSession: "cli",
	}

	fmt.Fprintln(out, "Enter one intent per line (empty line to finish):")
	for {
		fmt.Fprint(out, "> ")
		if !in.Scan() {
			break
		}
		text := strings.TrimSpace(in.Text())
		if text == "" {
			break
		}
		uctx, flags := resilience.WithFlags(context.Background())
		res, err := session.Submit(uctx, text, opts.target)
		if err != nil {
			fmt.Fprintln(out, "  error:", err)
			continue
		}
		if flags.Degraded() {
			fmt.Fprintf(out, "\n  note: served in degraded mode by the %q fallback backend\n", resilience.FallbackBackend)
		}
		fmt.Fprintf(out, "\nSynthesized snippet (%d attempt(s)):\n%s\n", res.Attempts, indent(res.SnippetText))
		fmt.Fprintf(out, "Behavioural specification:\n%s\n\n", indent(res.SpecJSON))
		_, questions, position, _ := res.Placement()
		fmt.Fprintf(out, "Inserted at position %d after %d question(s).\n\n", position, questions)
		if opts.trace != nil {
			st := session.Stats()
			fmt.Fprintf(opts.trace, "clarify: stats so far: %d LLM calls, %d disambiguations, %d retries, %d punts, %d updates\n",
				st.LLMCalls, st.Disambiguations, st.Retries, st.Punts, st.Updates)
		}
	}

	final := session.Config.Print()
	if opts.outPath != "" {
		if err := os.WriteFile(opts.outPath, []byte(final), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "Updated configuration written to %s\n", opts.outPath)
	} else {
		fmt.Fprintf(out, "\nFinal configuration:\n%s", final)
	}
	st := session.Stats()
	fmt.Fprintf(out, "\nSession: %d LLM calls, %d disambiguation questions, %d retries, %d punts, %d updates\n",
		st.LLMCalls, st.Disambiguations, st.Retries, st.Punts, st.Updates)
	return nil
}

// consoleOracle renders differential examples in the paper's OPTION 1 /
// OPTION 2 style and reads the user's choice from stdin.
type consoleOracle struct {
	in  *bufio.Scanner
	out io.Writer
}

func (o *consoleOracle) ChooseRoute(q disambig.RouteQuestion) (bool, error) {
	fmt.Fprintf(o.out, "\n%s\n", q)
	return o.ask()
}

func (o *consoleOracle) ChooseACL(q disambig.ACLQuestion) (bool, error) {
	fmt.Fprintf(o.out, "\n%s\n", q)
	return o.ask()
}

func (o *consoleOracle) ask() (bool, error) {
	for {
		fmt.Fprint(o.out, "Choose behaviour [1/2]: ")
		if !o.in.Scan() {
			return false, fmt.Errorf("input closed during disambiguation")
		}
		switch strings.TrimSpace(o.in.Text()) {
		case "1":
			return true, nil
		case "2":
			return false, nil
		}
		fmt.Fprintln(o.out, "Please answer 1 (new rule applies) or 2 (keep existing behaviour).")
	}
}

// runRemote drives a running clarifyd through the server client package,
// keeping the same interactive intent and question/answer loop as the
// in-process mode.
func runRemote(remoteURL, configPath, target, outPath string, stdin io.Reader, out io.Writer) error {
	data, err := os.ReadFile(configPath)
	if err != nil {
		return err
	}
	ctx := context.Background()
	client := &server.Client{BaseURL: strings.TrimRight(remoteURL, "/")}
	sid, err := client.CreateSession(ctx, server.CreateSessionRequest{Config: string(data)})
	if err != nil {
		return err
	}
	defer client.DeleteSession(ctx, sid)
	fmt.Fprintf(out, "Connected to %s (session %s).\n", remoteURL, sid)

	in := bufio.NewScanner(stdin)
	answer := func(q server.Question) (int, error) {
		fmt.Fprintf(out, "\n%s\n", q.Text)
		for {
			fmt.Fprint(out, "Choose behaviour [1/2]: ")
			if !in.Scan() {
				return 0, fmt.Errorf("input closed during disambiguation")
			}
			switch strings.TrimSpace(in.Text()) {
			case "1":
				return 1, nil
			case "2":
				return 2, nil
			}
			fmt.Fprintln(out, "Please answer 1 (new rule applies) or 2 (keep existing behaviour).")
		}
	}

	fmt.Fprintln(out, "Enter one intent per line (empty line to finish):")
	for {
		fmt.Fprint(out, "> ")
		if !in.Scan() {
			break
		}
		text := strings.TrimSpace(in.Text())
		if text == "" {
			break
		}
		// Each update gets its own trace context, injected as a traceparent
		// header by the client (a clarify-lb forwards it untouched): the
		// daemon records the update's spans under this trace ID, resolvable
		// at its /debug/traces/{id}.
		tp := obs.TraceParent{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Flags: obs.FlagSampled}
		uctx := obs.ContextWithTraceParent(ctx, tp)
		fmt.Fprintf(out, "  trace: %s\n", tp.TraceID)
		res, err := client.RunUpdate(uctx, sid, text, target, answer)
		if err != nil {
			fmt.Fprintln(out, "  error:", err)
			continue
		}
		if res.Status != server.StatusDone {
			fmt.Fprintln(out, "  error:", res.Error)
			continue
		}
		if res.Degraded {
			fmt.Fprintln(out, "\n  note: served in degraded mode by a fallback LLM backend")
		}
		fmt.Fprintf(out, "\nSynthesized snippet (%d attempt(s)):\n%s\n", res.Result.Attempts, indent(res.Result.SnippetText))
		fmt.Fprintf(out, "Behavioural specification:\n%s\n\n", indent(res.Result.SpecJSON))
		fmt.Fprintf(out, "Inserted at position %d after %d question(s).\n\n",
			res.Result.Position, res.Result.Questions)
	}

	final, err := client.Config(ctx, sid)
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, []byte(final), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "Updated configuration written to %s\n", outPath)
	} else {
		fmt.Fprintf(out, "\nFinal configuration:\n%s", final)
	}
	st, err := client.Stats(ctx, sid)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nSession: %d LLM calls, %d disambiguation questions, %d retries, %d punts, %d updates\n",
		st.LLMCalls, st.Disambiguations, st.Retries, st.Punts, st.Updates)
	return nil
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ")
}
