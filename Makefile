# Convenience targets; `make check` is what CI should run.

.PHONY: all build test check cache-check fuzz-smoke e2e-self-test serve-smoke since-smoke bench clean

all: build

build:
	dune build

test:
	dune runtest

# build + full test suite + the endtoend tests alone (their pins must
# not depend on what other tests left in the process) + the fixture-
# reading suites run from the repository root (a fixture directory the
# binary cannot find fails them rather than leaving them empty) + the
# bench's S3-DP rows (a row whose verdict misses its expect= fails it;
# they are the MONA route's one end-to-end run, as no portfolio includes
# it) and portfolio ablation + a traced,
# budgeted parallel run of the paper's List figures whose event log must
# validate (verify exits 1 when not everything proves; only a hard
# error, exit 2, fails the smoke) + a usage error that must exit 2, not
# escape as an exception + the cache check + the fuzz smoke + the
# end-to-end benchmark's self-test + the daemon round-trips + the
# --since store check.  Performance is judged by e2ebench alone; no step here
# rewrites a committed file
check:
	dune build
	dune runtest
	./_build/default/test/main.exe test endtoend
	./_build/default/test/main.exe test '(fol|corpus|incremental)'
	./_build/default/bench/main.exe s3_dp abl_split
	dune exec -- jahob verify --trace trace_smoke.jsonl -j 4 --budget 30 --stats \
	  examples/list/Client.java examples/list/List.java \
	  || [ $$? -eq 1 ]
	dune exec -- jahob trace-check trace_smoke.jsonl
	rm -f trace_smoke.jsonl
	dune exec -- jahob prove --provers foo "x = x" 2> /dev/null; \
	  [ $$? -eq 2 ]
	$(MAKE) cache-check
	$(MAKE) fuzz-smoke
	$(MAKE) e2e-self-test
	$(MAKE) serve-smoke
	$(MAKE) since-smoke

# every example group prints a byte-identical report with and without
# the verdict cache: a replayed verdict, a deterministic unknown
# included, reads as a fresh attempt's.  Exit 1 ("not fully verified")
# is a report too; only a hard error, exit 2, fails the step
EXAMPLE_GROUPS = arrays assoc game global list list_annotated stack
cache-check:
	for g in $(EXAMPLE_GROUPS); do \
	  dune exec -- jahob verify -j 1 examples/$$g/*.java \
	    > cache_check.on; [ $$? -le 1 ] || exit 1; \
	  dune exec -- jahob verify -j 1 --no-cache examples/$$g/*.java \
	    > cache_check.off; [ $$? -le 1 ] || exit 1; \
	  cmp cache_check.on cache_check.off \
	    || { echo "cache-check: $$g reports differ"; exit 1; }; \
	done
	rm -f cache_check.on cache_check.off

# a short fixed-seed differential fuzz of every fragment: any prover
# disagreement (or prover-vs-oracle contradiction) exits non-zero.
# The --inc campaign mutates seed programs and requires incremental
# re-verification to agree verdict-for-verdict with from-scratch runs.
# The --fol campaign's outcome counts are pinned: a change to the
# resolution engine that keeps the same search keeps every one of them
FOL_AB = indexed verdicts: 108 proofs, 49 saturated, 252 gave up, 0 timed out, 101 untranslatable
fuzz-smoke:
	dune exec -- jahob fuzz --seed 42 --count 40 --size 3
	dune exec -- jahob fuzz --replay test/corpus
	dune exec -- jahob fuzz --seed 42 --inc 120
	out="$$(dune exec -- jahob fuzz --seed 42 --fol 510)"; status=$$?; \
	  printf '%s\n' "$$out"; [ $$status -eq 0 ] \
	  && printf '%s\n' "$$out" | grep -qx '$(FOL_AB)'
	dune exec -- jahob fuzz --seed 42 --mona 400

# a brief traced and untraced run of every end-to-end benchmark workload:
# proves the benchmark program still builds against lib/ and that each
# metric it declares is printed with its unit and no request failed
e2e-self-test:
	python3 e2ebench/run.py --self-test

# stdio round-trips through the real daemon on one store file: a prove
# request must come back valid on the same line-oriented protocol the
# socket serves, and a second daemon must answer it from the file; an
# incremental verify of Stack re-verifies its four methods, and a second
# daemon answers all four from the file's method records
SMOKE_PROVE = '{"id":1,"cmd":"prove","hyps":["x <= y","y <= z"],"goal":"x <= z"}'
SMOKE_VERIFY = '{"id":2,"cmd":"verify","files":["examples/stack/Stack.java"],"incremental":true}'
serve-smoke:
	rm -f serve_smoke.jstore
	printf '%s\n' $(SMOKE_PROVE) \
	  | dune exec -- jahob serve --stdio --store serve_smoke.jstore \
	  | grep -q '"verdict":"valid"'
	printf '%s\n' $(SMOKE_PROVE) \
	  | dune exec -- jahob serve --stdio --store serve_smoke.jstore \
	  | grep -q '"verdict":"valid".*"cached":true'
	rm -f serve_smoke.jstore
	printf '%s\n' $(SMOKE_VERIFY) \
	  | dune exec -- jahob serve --stdio --store serve_smoke.jstore \
	  | grep -q '"unchanged":0,"reverified":4'
	printf '%s\n' $(SMOKE_VERIFY) \
	  | dune exec -- jahob serve --stdio --store serve_smoke.jstore \
	  | grep -q '"unchanged":4,"reverified":0'
	rm -f serve_smoke.jstore

# --since verifies the base and then the patch against it, recording
# both runs' method records in --store: a later incremental run on the
# same file answers all four Stack methods from the file
since-smoke:
	rm -f since_smoke.jstore
	dune exec -- jahob verify --since examples/stack/Stack.java \
	  --store since_smoke.jstore examples/stack/Stack.java > /dev/null
	test "$$(dune exec -- jahob verify --store since_smoke.jstore \
	  --incremental examples/stack/Stack.java | grep -c '\[unchanged\]')" -eq 4
	rm -f since_smoke.jstore

bench:
	dune exec bench/main.exe

clean:
	dune clean
