#!/usr/bin/env bash
# One smoke scenario per invocation: `smoke.sh <scenario>`.
#
# The CI smoke matrix fans one job out over these scenarios; keeping the
# commands in a script (rather than inlined per job) means every scenario
# runs identically on the runner and on a developer machine. Outputs land
# in ./out for artifact upload.
set -euo pipefail

repro() {
  cargo run --locked --release -p sdds-bench --bin repro -- "$@"
}

mkdir -p out

case "${1:-}" in
  headline)
    # The paper's headline experiment, scaled down.
    repro headline --procs 4 --factor 0.1 --jobs 2 --csv out/
    ;;

  trace)
    # One telemetry-enabled cell; the command itself hard-checks that the
    # per-disk energy table reconciles with the run's total energy to
    # 1e-9 J. Every JSONL line, the Chrome trace, and the metrics dump
    # must be well-formed JSON.
    repro trace --procs 4 --factor 0.1 --apps sar \
      --trace-out out/trace.jsonl --metrics-out out/metrics.json
    python3 - <<'EOF'
import json
events = [json.loads(l) for l in open('out/trace.jsonl')]
assert events, 'empty trace'
chrome = json.load(open('out/trace.chrome.json'))
assert chrome['traceEvents'], 'empty chrome trace'
metrics = json.load(open('out/metrics.json'))
assert metrics['schema'] == 'sdds-metrics-v1', metrics.get('schema')
print(len(events), 'events,', len(chrome['traceEvents']),
      'chrome entries,', len(metrics['counters']), 'counters')
EOF
    ;;

  fault)
    # Two scenarios x two policies, each run twice back to back. The
    # command exits non-zero if any app's bytes_moved diverges from its
    # fault-free twin (recovery lost data), and the two JSON reports of
    # each cell must be byte-identical (the whole fault pipeline is a
    # pure function of the seed).
    for scenario in light heavy; do
      for policy in default history; do
        cell="$scenario-$policy"
        for rep in a b; do
          repro faults --procs 4 --factor 0.25 --gap-factor 0.05 \
            --scenario "$scenario" --policy "$policy" --seed 42 \
            --out "out/faults-$cell-$rep.json"
        done
        cmp "out/faults-$cell-a.json" "out/faults-$cell-b.json" || {
          echo "fault report for $cell is not deterministic" >&2
          exit 1
        }
        echo "$cell: deterministic"
      done
    done
    ;;

  online)
    # The zipfian scene under all three decision layers (distilled table,
    # online learner, hybrid), run twice in separate processes. The
    # sdds-online-v1 report is a pure function of the seed, so the two
    # files must be byte-identical.
    for rep in a b; do
      repro online --scenes zipfian --modes table,online,hybrid \
        --seed 42 --out "out/online-$rep.json"
    done
    cmp out/online-a.json out/online-b.json || {
      echo "online report is not deterministic" >&2
      exit 1
    }
    echo "online zipfian: deterministic across separate processes"
    ;;

  attrib)
    # Full attribution matrix on a fault-heavy cell plus a multi-shard
    # observed scene, run twice in separate processes. The command itself
    # hard-fails on any of its checks: `energy reconciliation` (each
    # cell's per-state energy sums to the headline joules within 1e-9),
    # `latency identity` (each completed request span's queue and service
    # add up to its own end - arrival, with its spin-up share inside the
    # queue), `telemetry` and `observer event count`. The two
    # sdds-attrib-v1 reports must additionally be byte-identical.
    for rep in a b; do
      repro attrib --apps sar --procs 8 --factor 0.2 --gap-factor 0.05 \
        --scenario heavy --seed 42 --shards 4 \
        --out "out/attrib-$rep.json"
    done
    cmp out/attrib-a.json out/attrib-b.json || {
      echo "attrib report is not deterministic" >&2
      exit 1
    }
    echo "attrib heavy: deterministic across separate processes"
    ;;

  scale)
    # The sharded kernel's determinism contract, enforced end to end: the
    # same large scene at three worker counts must produce byte-identical
    # digest files (separate processes, so the comparison also covers
    # process-level nondeterminism), and the scale report with speedups
    # is kept as an artifact. One worker is the epoch loop with no helper
    # threads, so it is compared too.
    for jobs in 1 2 8; do
      repro scale --scales 25 --jobs-list "$jobs" --repeat 1 --no-baseline \
        --digest "out/scale-digest-j$jobs.txt"
    done
    for jobs in 1 8; do
      cmp out/scale-digest-j2.txt "out/scale-digest-j$jobs.txt" || {
        echo "scale digests diverged between 2 and $jobs workers" >&2
        exit 1
      }
    done
    echo "scale 25: byte-identical at 1, 2 and 8 workers"
    repro scale --scales 25 --jobs-list 1,4 --repeat 1 \
      --out out/scale-smoke.json
    ;;

  rebuild)
    # The replicated object-store scenario under the light and the heavy
    # fault plan (heavy has three 5 s crash windows instead of one 2 s
    # window), each run twice in separate processes. The command itself
    # hard-fails on any of its checks: `byte parity` (foreground bytes
    # match the fault-free twin and the rebuild finishes), `energy
    # reconciliation` (the foreground/rebuild split sums to the headline
    # joules), `latency identity` (each twin's read response equals queue
    # + spin-up wait + service + crash wait) and `p99 win` (routing
    # improves the p99 read latency). The two sdds-rebuild-v1 reports of
    # each scenario must additionally be byte-identical (the whole
    # scenario is a pure function of the seed).
    for scenario in light heavy; do
      for rep in a b; do
        repro rebuild --scenario "$scenario" --seed 42 \
          --out "out/rebuild-$scenario-$rep.json"
      done
      cmp "out/rebuild-$scenario-a.json" "out/rebuild-$scenario-b.json" || {
        echo "rebuild report for $scenario is not deterministic" >&2
        exit 1
      }
      echo "rebuild $scenario: deterministic across separate processes"
    done
    ;;

  examples)
    # Every program under examples/, built and run in release (`cargo
    # test` only builds them). An example panics, and so exits non-zero,
    # when a run it makes fails; custom_policy drives a user-written
    # EnergyPolicy through the power driver. None writes files.
    for src in examples/*.rs; do
      name="$(basename "$src" .rs)"
      echo "== example $name"
      cargo run --locked --release --example "$name"
    done
    ;;

  *)
    echo "usage: smoke.sh {headline|trace|fault|online|attrib|scale|rebuild|examples}" >&2
    exit 2
    ;;
esac
