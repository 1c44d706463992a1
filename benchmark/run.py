"""The porism benchmark.

    python3 benchmark/run.py --workload check|structure|orbit-q \
        --seed N --seconds S --trace 0|1

Run from the root of a porism source tree; the program is imported from
``src``.  One client sends one operation at a time (a closed loop): the
round of operations that ``--seed`` generates is repeated, whole, until
``--seconds`` have passed.  Outputs are checked after the timed phase
against the oracles in ``oracles.py``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics from a traced run with ``--trace 1``.  A fuller record goes to
``benchmark/results/``.  See README.md.
"""

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

import workloads  # noqa: E402  (the benchmark's own modules sit beside this file)

# Set-up is timed SETUP_REPEATS times, half before the timed phase and half
# after it, so that the median does not rest on one second of a machine
# whose speed drifts.  (Not between rounds: a fresh import there would
# change what the running program's call-time imports resolve to.)
SETUP_REPEATS = 15
# op_tail_ms is the latency of the TAIL_BEYOND+1-th slowest distinct
# operation of the round: the highest percentile with TAIL_BEYOND
# operations beyond it.
TAIL_BEYOND = 10
PORISM_MODULES = ("fields", "poly", "projective", "process", "ecurve",
                  "char2", "cli")


def import_porism():
    """A fresh import of porism from this tree's src, dropping any earlier
    import so that every set-up pays the import again."""
    for name in [m for m in sys.modules if m == "porism" or m.startswith("porism.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("porism")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "porism":
        raise ImportError(f"porism imported from {pkg.__file__}, not from {ROOT}")
    for name in PORISM_MODULES:
        importlib.import_module(f"porism.{name}")
    return pkg


def set_up(specs, ops):
    """Import, field construction and input encoding: everything before
    the first timed operation that does not rest on the benchmark's own
    oracles.  Returns (package, seconds)."""
    t0 = time.perf_counter()
    pkg = import_porism()
    for spec in specs:
        pkg.fields.parse_field_spec(spec)
    workloads.encode(ops)
    return pkg, time.perf_counter() - t0


def timed_phase(ops, prog, seconds, run_op):
    """Repeat the round until ``seconds`` have passed.  Returns per-op
    latencies, the first round's outputs, the rounds run, and the operations
    whose output changed from one round to the next or that raised."""
    latencies = []
    first = []
    unstable = {}
    errors = {}
    rounds = 0
    clock = time.perf_counter
    deadline = clock() + seconds
    while True:
        for i, op in enumerate(ops):
            t0 = clock()
            try:
                result = run_op(op, prog)
            except Exception as exc:      # a program fault ends only this op
                result = (None, f"{type(exc).__name__}: {exc}")
                errors[i] = errors.get(i, 0) + 1
            latencies.append(clock() - t0)
            if rounds == 0:
                first.append(result)
            elif result != first[i]:
                unstable[i] = unstable.get(i, 0) + 1
        rounds += 1
        if clock() >= deadline:
            return latencies, first, rounds, unstable, errors


def check_outputs(ops, first, rounds, unstable, errors):
    """Run every oracle on the first round's outputs.  Returns (correct,
    failed count over all rounds, problem lines).

    The one failure accepted as correct is an open start whose own-run
    period lies beyond the step budget (``op.check`` then reports it as
    failed with no problems).  Any problem, and any exception raised by the
    program, makes the run incorrect, failed or not."""
    failed = 0
    correct = True
    lines = []
    for i, (op, (code, out)) in enumerate(zip(ops, first)):
        if i in errors:
            failed += errors[i]
            correct = False
            lines.append(f"RAISED {op.label} in {errors[i]} rounds: {out}")
            continue
        problems, op_failed = op.check(code, out)
        if i in unstable:
            problems.append(f"output changed in {unstable[i]} later rounds")
        if op_failed:
            failed += rounds
            lines.append(f"FAILED {op.label}: every round")
        if problems:
            correct = False
            lines.append(f"WRONG {op.label}: {'; '.join(problems)} "
                         f"[{op.argv or op.kind}] {op.text[:300]}")
    return correct, failed, lines


def field_micro(fields, repeats=5, count=2000):
    """Microseconds per mul and per inv on fixed samples: F_13, F_{13^2},
    12-digit rationals and Q(sqrt -4) with 12-digit parts."""
    rng = random.Random(20211222)
    big = lambda: Fraction(rng.randrange(10**11, 10**12), rng.randrange(10**11, 10**12))
    fp = fields.PrimeField(13)
    fq = fields.parse_field_spec("Fq:13^2:2,0,1")
    q = fields.RationalField()
    qs = fields.QuadRationalField(-4)
    samples = {
        "Fp": [fp(rng.randrange(1, 13)) for _ in range(64)],
        "Fq": [fq((rng.randrange(13), rng.randrange(1, 13))) for _ in range(64)],
        "Q": [q(big()) for _ in range(64)],
        "Qsqrt": [qs((big(), big())) for _ in range(64)],
    }
    out = {}
    clock = time.perf_counter
    for kind, elems in samples.items():
        pairs = [(elems[i % 64], elems[(7 * i + 3) % 64]) for i in range(count)]
        muls, invs = [], []
        for _ in range(repeats):
            t0 = clock()
            for a, b in pairs:
                a * b
            muls.append((clock() - t0) / count * 1e6)
            t0 = clock()
            for a, _ in pairs:
                a.inv()
            invs.append((clock() - t0) / count * 1e6)
        out[f"fields.{kind}.mul_us"] = statistics.median(muls)
        out[f"fields.{kind}.inv_us"] = statistics.median(invs)
    return out


def layer_metrics(tracer, ops_done, busy):
    """The per-layer metrics of BENCHMARK.json from a traced run."""
    per_name, per_layer = tracer.summary()
    per_op = lambda x: x / ops_done
    incl_ms = lambda name: per_op(per_name.get(name, [0, 0.0, 0.0])[1]) * 1e3
    calls = tracer.calls_of
    starts = calls("process.start")
    steps = per_name.get("process.step", [0, 0.0, 0.0])
    m = {
        "fields.mul_calls": per_op(tracer.field_counts["mul"]),
        "fields.inv_calls": per_op(tracer.field_counts["inv"]),
        "fields.fields_built": per_op(tracer.field_counts["built"]),
        "poly.factor_calls": per_op(calls("poly.factor")),
        "poly.divmod_calls": per_op(calls("poly.Polynomial.__divmod__")),
        "projective.other_intersection_calls": per_op(calls("projective.other_intersection")),
        "projective.find_point_calls": per_op(calls("projective.find_point")),
        "projective.intersect_conics_ms": incl_ms("projective.intersect_conics"),
        "process.config_ms": incl_ms("process.PonceletConfig.__init__"),
        "process.start_ms": incl_ms("process.start"),
        "process.step_calls": per_op(calls("process.step")),
        "process.step_us": steps[1] / steps[0] * 1e6 if steps[0] else 0.0,
        "process.lift_share": tracer.hits.get("process.start", 0) / starts if starts else 0.0,
        "process.open_runs": per_op(tracer.hits.get("process.run", 0)),
        "ecurve.nu_calls": per_op(calls("ecurve.nu")),
        "traced.ops_per_s": ops_done / busy,
    }
    for layer in ("poly", "projective", "process", "ecurve", "char2", "cli"):
        m[f"{layer}.self_ms"] = per_op(per_layer.get(layer, 0.0)) * 1e3
    return m, per_name


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    build, specs = workloads.WORKLOADS[args.workload]
    ops = build(args.seed)
    try:
        setups = [set_up(specs, ops)
                  for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    except ImportError as exc:
        sys.stderr.write(f"cannot import porism from {ROOT / 'src'}: {exc}\n")
        return 2
    pkg = setups[-1][0]
    setup_times = [s for _, s in setups]
    prog = types.SimpleNamespace(cli=pkg.cli, projective=pkg.projective)

    run_op = workloads.execute
    tracer = None
    micro = {}
    if args.trace:
        from tracing import Tracer
        micro = field_micro(pkg.fields)
        tracer = Tracer()
        tracer.install(pkg, tests={
            "process.start": lambda r: r[2],                    # lifted start
            "process.run": lambda r: r.outcome == "open"})
        run_op = tracer.span("op")(workloads.execute)

    latencies, first, rounds, unstable, errors = timed_phase(
        ops, prog, args.seconds, run_op)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_times += [set_up(specs, ops)[1] for _ in range(SETUP_REPEATS // 2)]
    setup_s = statistics.median(setup_times)
    correct, failed, lines = check_outputs(ops, first, rounds, unstable, errors)
    for line in lines:
        sys.stderr.write(line + "\n")

    attempted = len(latencies)
    busy = sum(latencies)
    # Each operation's latency is the median of its repetitions in this run:
    # that keeps a percentile on the same operation however many rounds the
    # run had, and off a single slow moment of the machine.
    n = len(ops)
    ordered = sorted(statistics.median(latencies[i::n]) for i in range(n))
    tail_pct = 100.0 * (n - 1 - TAIL_BEYOND) / (n - 1)
    if tracer is None:
        values = {
            "ops_per_s": attempted / busy,
            "op_p50_ms": statistics.median(ordered) * 1e3,
            "op_tail_ms": ordered[-1 - TAIL_BEYOND] * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        detail = {}
    else:
        values, per_name = layer_metrics(tracer, attempted, busy)
        values.update(micro)
        detail = {"spans": {k: {"spans": v[0], "incl_s": v[1], "self_s": v[2]}
                            for k, v in sorted(per_name.items())}}

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    by_label = {}
    for i, lat in enumerate(latencies):
        by_label.setdefault(ops[i % len(ops)].label, []).append(lat)
    detail["labels"] = {k: {"ops": len(v), "p50_ms": statistics.median(v) * 1e3}
                        for k, v in sorted(by_label.items())}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, rounds=rounds, round_ops=len(ops),
                  tail_percentile=tail_pct, problems=lines,
                  python=sys.version.split()[0], **detail)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.spans.tsv.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
