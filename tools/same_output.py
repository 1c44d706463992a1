"""Check that two porism source trees give byte-identical benchmark outputs.

    python3 tools/same_output.py --before DIR --after DIR --seeds 401,402

Each DIR is the root of a porism source tree with its ``benchmark/``.  For
every seed, the ``check``, ``structure`` and ``orbit-q`` rounds are built
by that tree's ``benchmark/workloads.py`` and run once, in a subprocess per
tree, through the same entry points the benchmark calls.  Each
``porism-check`` operation of the check round is also run as ``porism run``
on the same pair and seed, once per branch (min and max), which puts a
start's lifted field and orbit coordinates under the comparison; each
``classify`` operation of the structure round is also run as ``porism
normalize``, which puts the tangent-pair transform matrix under it; and each
``run`` operation of the orbit-q round is also run as ``porism ecurve`` on
the same pair and seed, which puts the incidence curve over Q, and its split
factors over Q(sqrt d), under it, and as ``porism render-svg`` with the same
input, seed and ``--max-steps``, which puts the SVG bytes under it (the
first ``svgfig.MAX_CHORDS`` chords of an open run, and the rational point
each conic is parametrized from; a start lifted to Q(sqrt d) with d < 0,
or a polygon vertex at infinity, gives its exit-1 line instead), and as
``porism porism-check`` with the same input, seed and ``--max-steps``,
which puts the walk of starts lifted to Q(sqrt d) under it, and as
``porism classify`` and ``porism normalize`` with the same input and seed,
which puts the intersection type over Q and, for the tangent pairs, the
normal form and its transform matrix over Q under it; and each
ternary (n = 3) form of the structure round's ``char2-normalize``
operations is also run as ``porism char2-strange-point`` on the conic with
the same coefficients (missing ones are 0), which puts the char-2
smoothness test under it.  Each ``porism-check`` operation of the check
round is also run with ``--max-steps 64``, above F_{3^3}'s Hasse bound of
38, which puts the closed walks the default budget of 10 * char leaves open
(F_{3^3} periods up to 38, long folded walks) under the comparison, and
with ``--max-steps 5``, below most periods, which mixes open and closed
verdicts and puts the starts an open walk settles under it.  Each
seed also runs ``porism sweep --count 3
--num-starts 4 --seed <seed>`` over each of ``SWEEP_FIELDS``, with the
``elapsed_ms`` timing field of its records removed, which puts the random
pairs, the sweep's own pass rule and its writer under it.  Every operation's
exit code and output must match byte for byte.  The first differing
operation is printed with both outputs, then, for every workload and
command with a difference, how many of its operations differ and the label
of the first; the exit code is 1 on any difference and 0 when every output
matches.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("check", "structure", "orbit-q")
SWEEP_FIELDS = ("Fp:3", "Fp:11", "Fq:3^3:1,2,0,1")

# Run inside a tree: one JSON list of [workload, seed, label, command, code,
# output] per operation, on standard output.
CHILD = """
import json, sys, types
sys.path[:0] = ["benchmark", "src"]
import workloads
import porism.cli, porism.projective
prog = types.SimpleNamespace(cli=porism.cli, projective=porism.projective)
MONOMIALS = ("0,0", "1,1", "2,2", "0,1", "0,2", "1,2")
rows = []

def also(op, command, suffix, text, shown=None, extra=()):
    # the operation's input run as another command
    code, out = workloads.call_cli(porism.cli.main,
                                   [command, *op.argv[1:], *extra], text)
    rows.append([name, seed, op.label + suffix, shown or command, code, out])

for name in sys.argv[1].split(","):
    build = workloads.WORKLOADS[name][0]
    for seed in map(int, sys.argv[2].split(",")):
        for op in build(seed):
            code, out = workloads.execute(op, prog)
            command = op.argv[0] if op.kind == "cli" else op.kind
            rows.append([name, seed, op.label, command, code, out])
            if command == "classify":
                also(op, "normalize", " normalize", op.text)
            if command == "run":
                for other in ("ecurve", "render-svg", "porism-check",
                              "classify", "normalize"):
                    also(op, other, " " + other, op.text)
            if command == "char2-normalize" and op.obj["n"] == 3:
                form = op.obj["coeffs"]
                conic = {"field": op.obj["field"],
                         "coeffs": [form.get(key, "0") for key in MONOMIALS]}
                also(op, "char2-strange-point", " strange-point", json.dumps(conic))
            if command == "porism-check":
                for steps in ("64", "5"):
                    also(op, command, " max-steps " + steps, op.text,
                         "porism-check --max-steps " + steps,
                         ("--max-steps", steps))
                for branch in ("min", "max"):
                    also(op, "run", " run " + branch,
                         json.dumps(dict(op.obj, branch=branch)), "run " + branch)
for seed in map(int, sys.argv[2].split(",")):
    for spec in sys.argv[3].split(";"):
        code, out = workloads.call_cli(porism.cli.main, [
            "sweep", "--field", spec, "--count", "3", "--num-starts", "4",
            "--seed", str(seed)], "")
        if code in (0, 2):
            recs = [json.loads(line) for line in out.splitlines()]
            for rec in recs:
                rec.pop("elapsed_ms")
            out = "".join(json.dumps(rec) + "\\n" for rec in recs)
        rows.append(["sweep", seed, spec, "sweep", code, out])
json.dump(rows, sys.stdout)
"""


def outputs(tree, seeds):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", CHILD, ",".join(WORKLOADS),
         ",".join(map(str, seeds)), ";".join(SWEEP_FIELDS)],
        cwd=tree, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True)
    parser.add_argument("--after", required=True)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated benchmark seeds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    before, after = outputs(args.before, seeds), outputs(args.after, seeds)
    if len(before) != len(after):
        print(f"operation counts differ: {len(before)} before, {len(after)} after")
        return 1
    groups = {}  # (workload, command) -> [operations, differing, first label]
    for b, a in zip(before, after):
        name, seed, label, command = b[:4]
        group = groups.setdefault((name, command), [0, 0, None])
        group[0] += 1
        if b == a:
            continue
        if not any(g[1] for g in groups.values()):
            print(f"first difference: {name} seed {seed} {label!r}")
            print(f"  before: exit {b[4]}: {b[5][:300]!r}")
            print(f"  after:  exit {a[4]}: {a[5][:300]!r}")
        group[1] += 1
        group[2] = group[2] or f"seed {seed} {label!r}"
    differing = [(key, g) for key, g in groups.items() if g[1]]
    for (name, command), (total, count, first) in differing:
        print(f"{name} {command}: {count} of {total} operations differ; "
              f"first: {first}")
    if differing:
        return 1
    print(f"{len(after)} operations byte-identical "
          f"({', '.join(WORKLOADS)}, sweep; seeds {args.seeds})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
