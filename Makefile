# Convenience targets; everything is plain dune underneath.

.PHONY: all build test tables tables-full chaos chaos-service chaos-service-smoke chaos-sharded chaos-sharded-smoke chaos-net chaos-net-smoke soak-net mcheck mcheck-tier1 mcheck-dpor-tier1 fuzz fuzz-smoke analyze examples clean loc

all: build test

build:
	dune build @all

test:
	dune runtest

# Regenerate every table and figure at quick scale (~10 s) and write
# them as data to results/tables.json (schema renaming.tables/1, see
# docs/observability.md).  CI diffs every table but T13, whose multicore
# rows come from real interleavings.
tables:
	dune exec bin/main.exe -- run --json results/tables.json

# The EXPERIMENTS.md configuration (~15 minutes); JSON lands in
# results/full_scale.json.
tables-full:
	dune exec bin/main.exe -- run --scale full --json results/full_scale.json

# Deterministic fault-injection campaign: every algorithm under crash,
# crash-recovery and transient faults with the safety monitor (and so
# the refinement spec) on every run.  Exits nonzero on any safety
# violation; JSON lands in results/chaos.json (pinned seeds, ~1 s; CI
# diffs it).
chaos:
	dune exec bin/main.exe -- chaos

# Lease-service churn campaign: crash-restart clients against the
# lease/reclaim/fencing service with admission control (one service as
# a one-shard, one-slice router, driven by Net_churn over a perfect
# transport), >= 10^6 client sessions across four degradation regimes.
# Exits nonzero on any lease-safety violation, livelock, unfenced stale
# operation, or if the campaign failed to exercise reclamation,
# shedding or ghost replays; JSON lands in results/chaos-service.json
# (schema renaming.chaos-service/6).
chaos-service:
	dune exec bin/main.exe -- chaos --service --out results/chaos-service.json

# Reduced-run CI configuration of the same campaign (~10^5 sessions).
chaos-service-smoke:
	dune exec bin/main.exe -- chaos --service --sessions 12500 --seeds 2 --out results/chaos-service-smoke.json

# Partition chaos campaign over the sharded router, driven by Net_churn
# over a perfect transport (shard crashes and stalls are found by
# heartbeat loss): Zipf-skewed rebalancing, correlated shard crashes,
# crash-during-handoff and stall routing, with the refinement spec
# attached (as to every lease-service campaign).  Exits
# nonzero on any safety violation, livelock, wrongly fenced live lease,
# unfenced stale ghost, or if the campaign failed to exercise handoffs
# (including mid-transit crashes), adoption, shard crashes or ghost
# replays; JSON lands in results/chaos-sharded.json (schema
# renaming.chaos-sharded/5).
chaos-sharded:
	dune exec bin/main.exe -- chaos --sharded --out results/chaos-sharded.json

# Reduced-run CI configuration of the same campaign.
chaos-sharded-smoke:
	dune exec bin/main.exe -- chaos --sharded --sessions 15000 --seeds 2 --out results/chaos-sharded-smoke.json

# Unreliable-transport chaos campaign over the sharded service: every
# operation is a typed envelope through the simulated network (drops,
# duplicates, reordering, bounded delay, directional partitions), with
# per-slice at-most-once dedup, client timeout/retry and heartbeat
# failure detection.  Exits nonzero on any safety violation, end-to-end
# double grant, unexpected fence, successful ghost op — or if any piece
# of the fault machinery (ghost replays included) failed to fire.  JSON
# lands in results/chaos-net.json (schema renaming.chaos-net/4).
chaos-net:
	dune exec bin/main.exe -- chaos --net --out results/chaos-net.json

# CI-sized slice of the same campaign (all four cells, fewer sessions).
chaos-net-smoke:
	dune exec bin/main.exe -- chaos --net --sessions 2000 --seeds 2 --out results/chaos-net-smoke.json

# Bounded memory over long runs: the default lossy Net_churn at 10^5 and
# at 10^6 sessions, each in a fresh process, with the refinement spec on
# the router's tap; exits nonzero if the long
# run's peak major heap exceeds 1.25x the short run's, or if either run
# is unsafe (~15 s).
soak-net:
	dune build ./test/soak/soak_net.exe
	./_build/default/test/soak/soak_net.exe

# Bounded model checking: exhaustively explore every schedule of the
# small roster instances with source-DPOR (wakeup trees over the audited
# independence relation, preemption-bounded) and the safety monitor on
# every interleaving.  Violations are auto-shrunk to minimal repros
# under results/repros/; exits nonzero on any violation; JSON lands in
# results/mcheck.json (schema renaming.mcheck/2).
mcheck:
	dune exec bin/main.exe -- mcheck

# The fast subset that also runs inside `dune runtest`.  Written to its
# own file so it never overwrites the full roster's results/mcheck.json.
mcheck-tier1:
	dune exec bin/main.exe -- mcheck --tier1 --out results/mcheck-tier1.json

# The CI step: the enlarged tier-1 roster (n4 handoff entries plus
# shard-handoff-n5) checked exhaustively under DPOR, with a wall-clock
# budget assertion so reduction regressions fail loudly.
mcheck-dpor-tier1:
	dune exec bin/main.exe -- mcheck --tier1 --budget-seconds 60 --out results/mcheck-tier1.json

# Coverage-guided schedule fuzzing: PCT adversaries plus mutation of an
# interleaving-coverage corpus over the fuzz roster (clean algorithms
# that must stay clean + seeded mutants that must be found).  Violations
# are ddmin-shrunk to replayable repros under results/repros/; exits
# nonzero on a missed mutant or a violation on a clean target; JSON
# lands in results/fuzz.json.
fuzz:
	dune exec bin/main.exe -- fuzz

# The fixed-seed, small-budget CI configuration: seeded mutants only.
fuzz-smoke:
	dune exec bin/main.exe -- fuzz --mutants-only --seed 1 --iterations 200 --out results/fuzz-smoke.json

# Static analysis: the commutation-audited independence oracle (the
# footprint table mcheck's DPOR race detection prunes with,
# machine-checked against Memory.apply, plus a soundness audit of the
# race relation itself), the source-level concurrency lint over lib/
# and the unused-export rule.  The rule reads the typed trees that
# `dune build @check` writes, so that runs first.  Exits nonzero on any
# failure; JSON lands in results/analyze.json.
analyze:
	dune build @check
	dune exec bin/main.exe -- analyze

examples:
	dune exec examples/quickstart.exe
	dune exec examples/device_demo.exe
	dune exec examples/coordination.exe
	dune exec examples/adversary_showdown.exe
	dune exec examples/namespace_tradeoff.exe
	dune exec examples/replay_debugging.exe
	dune exec examples/multicore_names.exe

clean:
	dune clean

# Lines of OCaml (.ml + .mli) per top-level directory, then the sum.
LOC_DIRS = lib bin test examples e2e_bench
loc:
	@total=0; for d in $(LOC_DIRS); do \
	  n=$$(find $$d \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l); \
	  printf '%8d %s\n' $$n $$d; total=$$((total + n)); \
	done; printf '%8d total\n' $$total
