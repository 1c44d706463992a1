"""Command-line interface.

Subcommands: classify, normalize, run, porism-check, ecurve,
char2-normalize, char2-strange-point, sweep, render-svg.

All geometric input is JSON (a file path argument, or - for stdin); conics
are {"field": "<spec>", "coeffs": [a00, a11, a22, a01, a02, a12]} in the
monomial order x^2, y^2, z^2, xy, xz, yz, with each coefficient an integer
or the field's canonical element string; an inner conic's field, when
given, is the outer's.  Exit codes: 0 success / PASS,
1 usage or input error, 2 theorem violation (a bug canary: the underlying
statements are proved, so 2 should never happen).  Errors are reported as
one JSON line {"error": ...} on standard error.
"""

import argparse
import functools
import json
import os
import random
import sys
import time
from itertools import chain, islice

from . import char2, ecurve
from .errors import DegenerateInputError, DigitLimitError, ExtensionOverflowError
from .fields import check_digits, parse_element, parse_field_spec
from .poly import Polynomial, factor
from .process import KEEP_ORBIT, PonceletConfig, porism_check, run, sample_starts
from .projective import Conic, ProjPoint, normal_form, tangent_at
from .svgfig import render_process

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _read_json(path):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
        obj = json.loads(text, parse_int=lambda s: int(check_digits(s)))
    except (OSError, json.JSONDecodeError, DigitLimitError,
            RecursionError) as exc:
        raise CliError(f"cannot read input: {exc}")
    if not isinstance(obj, dict):
        raise CliError("input must be a JSON object")
    return obj


def _json_int(value):
    """A JSON integer, not a bool, or an integer's digit string, as an int;
    anything else raises ValueError."""
    if isinstance(value, str):
        return int(check_digits(value))
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _array(value, name):
    if not isinstance(value, list):
        raise TypeError(f"{name} must be an array")
    return value


def read_conic(obj, field=None):
    """A smooth conic over its named field or ``field``, which it may name."""
    try:
        if field is None:
            field = parse_field_spec(obj["field"])
        elif "field" in obj and obj["field"] != field.spec_string() \
                and parse_field_spec(obj["field"]) != field:
            raise CliError("conics over different fields")
        coeffs = _array(obj["coeffs"], "coeffs")
        if len(coeffs) != 6:
            raise CliError("a conic needs six coefficients")
        conic = Conic(field, [parse_element(field, c) for c in coeffs])
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad conic JSON: {exc}")
    if not conic.is_smooth():
        raise CliError("conic is singular")
    return conic


def read_pair(obj):
    try:
        outer = read_conic(obj["outer"])
        inner = read_conic(obj["inner"], field=outer.field)
    except KeyError as exc:
        raise CliError(f"missing key {exc}")
    return outer, inner


def conic_json(conic):
    return {"field": conic.field.spec_string(),
            "coeffs": [str(c) for c in conic.coeffs]}


def point_json(p):
    return {"field": p.field.spec_string(),
            "coords": [str(c) for c in p.coords]}


def type_string(t):
    return "(" + ",".join(str(m) for m in t) + ")"


def _write(args, text):
    """The command's output, to ``--output`` or to standard output."""
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, data, human_lines):
    _write(args, (json.dumps(data, indent=2) + "\n") if args.json
           else "".join(line + "\n" for line in human_lines))


def _classify_payload(outer, inner, seed):
    cfg = PonceletConfig(outer, inner, seed=seed)
    data = {
        "type": type_string(cfg.intersection_type),
        "tangency_points": [point_json(p) for p in cfg.tangencies],
    }
    if cfg.intersection_type[0] >= 2:
        nf = normal_form(outer, inner, seed, cfg.intersection_type,
                         cfg.tangencies)
        data["normal_form"] = {"t": str(nf.t), "a": str(nf.a),
                               "b": str(nf.b), "delta": str(nf.delta)}
    return data


def cmd_classify(args):
    outer, inner = read_pair(_read_json(args.input))
    data = _classify_payload(outer, inner, args.seed)
    lines = [f"type: {data['type']}"]
    for p in data["tangency_points"]:
        lines.append(f"tangency: [{':'.join(p['coords'])}] over {p['field']}")
    if "normal_form" in data:
        nf = data["normal_form"]
        lines.append(f"normal form: t={nf['t']} a={nf['a']} b={nf['b']} "
                     f"delta={nf['delta']}")
    _emit(args, data, lines)
    return EXIT_OK


def cmd_normalize(args):
    outer, inner = read_pair(_read_json(args.input))
    nf = normal_form(outer, inner, args.seed)
    newc, newd = nf.conics()
    data = {
        "t": str(nf.t), "a": str(nf.a), "b": str(nf.b),
        "delta": str(nf.delta),
        "matrix": [[str(c) for c in row] for row in nf.transform.matrix],
        "outer": conic_json(newc),
        "inner": conic_json(newd),
    }
    lines = [f"t={data['t']} a={data['a']} b={data['b']} delta={data['delta']}"]
    lines += ["matrix row: " + " ".join(row) for row in data["matrix"]]
    _emit(args, data, lines)
    return EXIT_OK


def _start_point(cfg, obj, seed):
    if "c1" in obj:
        try:
            c1 = ProjPoint(cfg.field, [parse_element(cfg.field, c)
                                       for c in _array(obj["c1"], "c1")])
        except (TypeError, ValueError) as exc:
            raise CliError(f"bad start point: {exc}")
        if not cfg.outer.contains(c1):
            raise CliError("start point is not on the outer conic")
        return c1
    # at most 2 of the q + 1 >= 4 (over Q, 13) parameters drawn are tangencies
    return sample_starts(cfg, 1, seed)[0]


def cmd_run(args):
    obj = _read_json(args.input)
    outer, inner = read_pair(obj)
    cfg = PonceletConfig(outer, inner, seed=args.seed)
    c1 = _start_point(cfg, obj, args.seed)
    branch = obj.get("branch", "min")
    result = run(cfg, c1, branch=branch, max_steps=args.max_steps)
    data = {
        "outcome": result.outcome,
        "period": result.period,
        "steps": result.steps,
        "lifted": result.lifted,
        "type": type_string(cfg.intersection_type),
    }
    if result.orbit and (result.outcome == "open" or result.period <= KEEP_ORBIT):
        data["orbit"] = [{"c": point_json(st.c), "d": point_json(st.d)}
                         for st in result.orbit]
    lines = [f"type: {data['type']}",
             f"outcome: {result.outcome}"
             + (f" with period {result.period}" if result.period else
                f" after {result.steps} steps"),
             f"lifted: {result.lifted}"]
    _emit(args, data, lines)
    return EXIT_OK


def cmd_porism_check(args):
    obj = _read_json(args.input)
    outer, inner = read_pair(obj)
    try:
        num_starts = _json_int(obj.get("num_starts", 10))
    except ValueError as exc:
        raise CliError(f"bad num_starts: {exc}")
    cfg = PonceletConfig(outer, inner, seed=args.seed)
    report = porism_check(cfg, num_starts=num_starts,
                          max_steps=args.max_steps, seed=args.seed)
    data = {
        "type": type_string(report.intersection_type),
        "periods": report.periods,
        "spectrum": report.period_spectrum(),
        "closed": report.num_closed,
        "open": report.num_open,
        "pass": report.passed,
    }
    lines = [f"type: {data['type']}",
             f"periods: {report.periods}",
             "PASS" if report.passed else "FAIL"]
    _emit(args, data, lines)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def cmd_ecurve(args):
    outer, inner = read_pair(_read_json(args.input))
    shp = ecurve.shape(outer, inner, seed=args.seed)
    data = {
        "h": [[str(c) for c in row] for row in shp.form.h],
        "shape": shp.tag,
        "singular_points": [{"u": point_json(u), "v": point_json(v)}
                            for u, v in shp.singular],
        "reducible": shp.reducible,
    }
    if shp.factors is not None:
        data["factors"] = [[[str(c) for c in row] for row in f.m]
                           for f in shp.factors]
        data["split_lifted"] = shp.lifted_split
    lines = [f"shape: {shp.tag}",
             f"singular points: {len(shp.singular)}",
             f"reducible: {data['reducible']}"]
    _emit(args, data, lines)
    return EXIT_OK


def _read_quadratic_form(obj):
    try:
        field = parse_field_spec(obj["field"])
        n = _json_int(obj["n"])
        if not 1 <= n <= 32:
            raise ValueError(f"n must be between 1 and 32, got {n}")
        if not isinstance(obj["coeffs"], dict):
            raise TypeError("coeffs must be an object")
        coeffs = {}
        for key, val in obj["coeffs"].items():
            i, j = map(_json_int, key.split(","))
            coeffs[(i, j)] = parse_element(field, val)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad quadratic form JSON: {exc}")
    try:
        return char2.QuadraticForm2(field, n, coeffs)
    except ValueError as exc:
        raise CliError(str(exc))


def cmd_char2_normalize(args):
    q = _read_quadratic_form(_read_json(args.input))
    can = char2.symplectic_normalize(q)
    data = {
        "l": can.l,
        "has_square_term": can.has_square_term,
        "lifted": can.lifted,
        "field": can.field.spec_string(),
        "matrix": [[str(c) for c in row] for row in can.matrix()],
    }
    lines = [f"l={can.l} square_term={can.has_square_term} "
             f"lifted={can.lifted} over {data['field']}"]
    lines += ["matrix row: " + " ".join(row) for row in data["matrix"]]
    _emit(args, data, lines)
    return EXIT_OK


def cmd_char2_strange_point(args):
    obj = _read_json(args.input)
    try:
        field = parse_field_spec(obj["field"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad conic JSON: {exc}")
    if field.char != 2:
        raise CliError("char2-strange-point needs a characteristic-2 field")
    try:
        conic = Conic(field, [parse_element(field, c)
                              for c in _array(obj["coeffs"], "coeffs")])
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad conic JSON: {exc}")
    try:
        p = char2.strange_point(conic)
    except DegenerateInputError as exc:
        raise CliError(str(exc))
    transcript = []
    for pt in _char2_conic_points(conic, limit=10):
        line = tangent_at(conic, pt)
        transcript.append({"point": point_json(pt),
                           "tangent": [str(c) for c in line.coeffs],
                           "through_strange_point": line.contains(p)})
    data = {"strange_point": point_json(p), "transcript": transcript}
    lines = [f"strange point: [{':'.join(str(c) for c in p.coords)}]"]
    lines += [f"tangent at [{':'.join(t['point']['coords'])}] passes: "
              f"{t['through_strange_point']}" for t in transcript]
    _emit(args, data, lines)
    return EXIT_OK


def _char2_conic_points(conic, limit):
    """The first ``limit`` points of the conic in the order [x:y:1] (x, then
    y, in element order), [x:1:0], [1:0:0]: on each line the points are the
    roots of a quadratic, solved rather than searched for."""
    field = conic.field
    one, zero = field.one, field.zero
    a00, a11, a22, a01, a02, a12 = conic.coeffs
    candidates = chain(
        (ProjPoint(field, [x, y, one]) for x in field.elements()
         for y in _roots(field, a11, a01 * x + a12, a00 * x * x + a02 * x + a22)),
        (ProjPoint(field, [x, one, zero])
         for x in _roots(field, a00, a01, a11)),
        [ProjPoint(field, [one, zero, zero])] if a00.is_zero() else [])
    return list(islice(candidates, limit))


def _roots(field, a, b, c):
    """The roots of a t^2 + b t + c in the field, in element order; every
    element when the form is zero."""
    if a.is_zero():
        if not b.is_zero():
            return [-c / b]
        return field.elements() if c.is_zero() else []
    return sorted((-g[0] for g, _ in factor(Polynomial(field, [c, b, a]))
                   if g.degree == 1), key=lambda r: r.sort_key())


def _random_smooth_conic(field, rng):
    while True:
        coeffs = [field.element(rng.randrange(field.size)) for _ in range(6)]
        try:
            conic = Conic(field, coeffs)
        except ValueError:
            continue
        if conic.is_smooth():
            return conic


def sweep_one(field_spec, seed, index, num_starts, max_steps):
    """One sweep record; pure function of its arguments, so records are
    independent of how trials are distributed over workers."""
    field = parse_field_spec(field_spec)
    rng = random.Random(f"{seed}:{index}")
    t0 = time.perf_counter()
    outer = _random_smooth_conic(field, rng)
    inner = _random_smooth_conic(field, rng)
    while inner == outer:
        inner = _random_smooth_conic(field, rng)
    cfg = PonceletConfig(outer, inner, seed=seed + index)
    report = porism_check(cfg, num_starts=num_starts, max_steps=max_steps,
                          seed=seed + index)
    return {
        "index": index,
        "field": field_spec,
        "outer": conic_json(outer),
        "inner": conic_json(inner),
        "type": type_string(cfg.intersection_type),
        "periods": report.periods,
        "spectrum": report.period_spectrum(),
        "pass": report.passed,
        "seed": seed,
        "elapsed_ms": round(1000 * (time.perf_counter() - t0), 3),
    }


def cmd_sweep(args):
    if parse_field_spec(args.field).size is None:
        raise CliError("sweep draws random conics and needs a finite field")
    tasks = [(args.field, args.seed, i, args.num_starts, args.max_steps)
             for i in range(args.count)]
    # records are pure functions of their tasks; starmap keeps their order
    workers = min(args.jobs, args.count, os.cpu_count() or 1)
    if workers > 1:
        from multiprocessing import Pool
        with Pool(workers) as pool:
            records = pool.starmap(sweep_one, tasks)
    else:
        records = [sweep_one(*t) for t in tasks]
    _write(args, "".join(json.dumps(rec) + "\n" for rec in records))
    return EXIT_OK if all(r["pass"] for r in records) else EXIT_VIOLATION


def cmd_render_svg(args):
    obj = _read_json(args.input)
    outer, inner = read_pair(obj)
    if outer.field.size is not None:
        raise CliError("finite-field configurations have no canonical real "
                       "embedding; rendering needs Q or Q(sqrt d)")
    cfg = PonceletConfig(outer, inner, seed=args.seed)
    c1 = _start_point(cfg, obj, args.seed)
    result = run(cfg, c1, branch=obj.get("branch", "min"),
                 max_steps=args.max_steps)
    _write(args, render_process(cfg, result, seed=args.seed))
    return EXIT_OK


def _global_flags(parser, suppress):
    """The shared flags, accepted both before and after the subcommand."""
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--seed", type=int,
                        **(kw if suppress else {"default": 0}))
    parser.add_argument("--max-steps", type=int,
                        **(kw if suppress else {"default": None}))
    parser.add_argument("--json", action="store_true",
                        help="emit JSON instead of plain text", **kw)
    parser.add_argument("--output", help="write output here",
                        **(kw if suppress else {"default": None}))


def build_parser():
    parser = _Parser(prog="porism",
                     description="Exact Poncelet-process toolkit")
    _global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_input=True):
        p = sub.add_parser(name)
        _global_flags(p, suppress=True)
        if needs_input:
            p.add_argument("input", nargs="?", default="-",
                           help="JSON input path, - for stdin")
        p.set_defaults(fn=fn)
        return p

    add("classify", cmd_classify)
    add("normalize", cmd_normalize)
    add("run", cmd_run)
    add("porism-check", cmd_porism_check)
    add("ecurve", cmd_ecurve)
    add("char2-normalize", cmd_char2_normalize)
    add("char2-strange-point", cmd_char2_strange_point)
    add("render-svg", cmd_render_svg)
    sweep = add("sweep", cmd_sweep, needs_input=False)
    sweep.add_argument("--field", required=True, help="field spec, e.g. Fp:11")
    sweep.add_argument("--count", type=int, default=10)
    sweep.add_argument("--num-starts", type=int, default=10)
    sweep.add_argument("--jobs", type=int, default=1)
    return parser


@functools.cache
def _parser():
    # built on the first call, not at import, and reused: parsing leaves
    # the parser as it was
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except DigitLimitError as exc:  # the text of a long orbit over Q
        code, message = EXIT_INPUT, f"{exc}; pass a smaller --max-steps"
    except (CliError, ExtensionOverflowError, ValueError) as exc:
        code, message = EXIT_INPUT, str(exc)
    except AssertionError as exc:  # a theorem canary, TheoremViolation or not
        code, message = EXIT_VIOLATION, f"theorem violation: {exc}"
    sys.stderr.write(json.dumps({"error": message}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
