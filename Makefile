# Convenience targets; `make check` is what CI should run.

.PHONY: all build test check fuzz-smoke e2e-self-test bench-scaling bench-daemon bench-incremental bench-fol bench-mona serve-smoke bench bench-json clean

all: build

build:
	dune build

test:
	dune runtest

# build + full test suite + a parallel-dispatch smoke run of the
# paper's List figures + a traced parallel run whose event log must
# validate (verify exits 1 when not everything proves; only a hard
# error, exit 2, fails the smoke)
check:
	dune build
	dune runtest
	dune exec bench/main.exe -- -j 4 fig1_4
	dune exec -- jahob verify --trace trace_smoke.jsonl -j 4 --stats \
	  examples/list/Client.java examples/list/List.java \
	  || [ $$? -eq 1 ]
	dune exec -- jahob trace-check trace_smoke.jsonl
	rm -f trace_smoke.jsonl
	$(MAKE) fuzz-smoke
	$(MAKE) e2e-self-test
	$(MAKE) bench-scaling
	$(MAKE) bench-daemon
	$(MAKE) bench-incremental
	$(MAKE) bench-fol
	$(MAKE) bench-mona
	$(MAKE) serve-smoke

# a short fixed-seed differential fuzz of every fragment: any prover
# disagreement (or prover-vs-oracle contradiction) exits non-zero.
# The --inc campaign mutates seed programs and requires incremental
# re-verification to agree verdict-for-verdict with from-scratch runs
fuzz-smoke:
	dune exec -- jahob fuzz --seed 42 --count 40 --size 3
	dune exec -- jahob fuzz --replay test/corpus
	dune exec -- jahob fuzz --seed 42 --inc 120
	dune exec -- jahob fuzz --seed 42 --fol 510
	dune exec -- jahob fuzz --seed 42 --mona 400

# a brief traced and untraced run of every end-to-end benchmark workload:
# proves the benchmark program still builds against lib/ and that each
# metric it declares is printed with its unit and no request failed
e2e-self-test:
	python3 e2ebench/run.py --self-test

# scaling guard for the work-stealing pool: verdict counts and cache
# hit/lookup counters must be identical at every -j (the claim table
# makes cache behavior schedule-independent), and on hosts with >=4
# cores -j4 must clear a 1.5x speedup floor over -j1.  On smaller hosts
# the floor is reported as SKIPPED, never as a pass.  Refreshes the
# scaling rows in BENCH_results.json via bench-json in CI
bench-scaling:
	dune exec bench/main.exe -- scaling

# guard for the verification daemon + persistent verdict store: warm
# JSONL replay of the fully-verified example groups must beat the cold
# CLI by >=3x with identical verdicts, including after a daemon restart
# that re-serves from the on-disk store; refreshes BENCH_daemon.json
bench-daemon:
	dune exec bench/main.exe -- daemon

# guard for incremental re-verification: after a one-method body edit,
# answering from the method/dependency index must beat re-verifying the
# patched example groups from scratch by >=5x, with identical verdicts
# and nothing re-verified beyond the edited method; refreshes
# BENCH_incremental.json
bench-incremental:
	dune exec bench/main.exe -- incremental

# A/B guard for the indexed saturation engine: interleaved runs over a
# saturation-heavy suite must show identical verdicts and a >=2x total
# wall-clock win for the discrimination-tree engine over the retained
# naive loop, and the indexed engine may not lose any naive proof on
# the examples obligations; refreshes BENCH_fol.json
bench-fol:
	dune exec bench/main.exe -- fol

# A/B guard for the BDD-backed WS1S automata engine: interleaved runs
# over a width-scaling suite must show identical verdicts and a >=3x
# total wall-clock win for the symbolic engine over the retained dense
# table engine, a width-22 chain must stay infeasible for the dense
# engine inside a 5s budget while the BDD engine solves it, and both
# engines must agree on every MONA-routed examples obligation;
# refreshes BENCH_mona.json
bench-mona:
	dune exec bench/main.exe -- mona

# one stdio round-trip through the real daemon: a prove request must
# come back valid on the same line-oriented protocol the socket serves
serve-smoke:
	printf '%s\n' \
	  '{"id":1,"cmd":"prove","hyps":["x <= y","y <= z"],"goal":"x <= z"}' \
	  | dune exec -- jahob serve --stdio --store serve_smoke.jstore \
	  | grep -q '"verdict":"valid"'
	rm -f serve_smoke.jstore

bench:
	dune exec bench/main.exe

# machine-readable per-experiment timings for the perf trajectory
bench-json:
	dune exec bench/main.exe -- --json

clean:
	dune clean
