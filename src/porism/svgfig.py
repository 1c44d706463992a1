"""Deterministic SVG rendering of characteristic-zero configurations.

The exact data stays exact everywhere else; this module is the one place
where numbers become 64-bit floats, via the embedding that sends sqrt(d) to
the positive real root (so only Q and Q(sqrt d) with d > 0 are renderable).
Coordinates are formatted with a fixed precision, so identical inputs give
byte-identical SVG documents.
"""

import math

from .errors import DegenerateInputError
from .fields import RationalField, QuadRationalField
from .projective import find_point, parametrize

CONIC_SAMPLES = 720
MAX_CHORDS = 8  # chords drawn of an open run
FMT = "{:.4f}"


def embed_real(elem):
    """The real number behind an exact element; sqrt(d) > 0."""
    field = elem.field
    if isinstance(field, RationalField):
        return float(elem.value)
    if isinstance(field, QuadRationalField):
        if field.d < 0:
            raise DegenerateInputError(
                f"Q(sqrt {field.d}) has no real embedding")
        r, s = elem.value
        return float(r) + float(s) * math.sqrt(float(field.d))
    raise DegenerateInputError(
        "only rational and real-quadratic configurations can be drawn")


def _embed_point(p):
    x, y, z = (embed_real(c) for c in p.coords)
    if abs(z) < 1e-9:
        return None
    return (x / z, y / z)


def _conic_polyline(conic, seed):
    """Real sample points of the conic, grouped into connected arcs.

    The conic is traced through its exact degree-1 parametrization; the
    parameter sweeps tan of a uniform angle grid so the point at infinity of
    the parameter line is covered too.  Arcs are split where the curve
    leaves the affine chart.
    """
    par = parametrize(conic, find_point(conic, seed))
    field = conic.field
    arcs = [[]]
    for k in range(CONIC_SAMPLES + 1):
        theta = math.pi * (k / CONIC_SAMPLES - 0.5)
        u = math.tan(theta) if abs(abs(theta) - math.pi / 2) > 1e-9 else None
        if u is None:
            xyz = [embed_real(field(c)) for c in
                   (par.c[r][2] for r in range(3))]
        else:
            xyz = [sum(embed_real(field(par.c[r][j])) * u ** j
                       for j in range(3)) for r in range(3)]
        x, y, z = xyz
        if abs(z) < 1e-7 * max(abs(x), abs(y), 1.0):
            if arcs[-1]:
                arcs.append([])
            continue
        arcs[-1].append((x / z, y / z))
    return [arc for arc in arcs if len(arc) >= 2]


def _path(points):
    return " ".join(f"{'L' if i else 'M'}{FMT.format(x)},{FMT.format(-y)}"
                    for i, (x, y) in enumerate(points))


class SvgFigure:
    """Collects embedded geometry and serializes one SVG document."""

    def __init__(self):
        self.conic_arcs = []   # (arcs, css class)
        self.segments = []     # ((x1,y1),(x2,y2))
        self.markers = []      # ((x,y), label)

    def add_conic(self, conic, css, seed=0):
        self.conic_arcs.append((_conic_polyline(conic, seed), css))

    def add_segment(self, p, q):
        a, b = _embed_point(p), _embed_point(q)
        if a is None or b is None:
            raise DegenerateInputError("polygon vertex at infinity")
        self.segments.append((a, b))

    def add_marker(self, p, label):
        a = _embed_point(p)
        if a is not None:
            self.markers.append((a, label))

    def _bounds(self):
        pts = [q for a, b in self.segments for q in (a, b)]
        pts += [p for p, _ in self.markers]
        if pts:
            # frame the polygon; clamp conic arcs to a comparable window
            xs = [p[0] for p in pts]
            ys = [p[1] for p in pts]
        else:
            xs = [p[0] for arcs, _ in self.conic_arcs for a in arcs for p in a]
            ys = [p[1] for arcs, _ in self.conic_arcs for a in arcs for p in a]
        if not xs:
            raise DegenerateInputError("nothing to draw")
        span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
        cx, cy = (max(xs) + min(xs)) / 2, (max(ys) + min(ys)) / 2
        half = span * 0.75 + 1.0
        return cx - half, cy - half, 2 * half

    def _clip(self, arc, x0, y0, size):
        """Split an arc at points far outside the viewport."""
        out = [[]]
        for x, y in arc:
            if x0 - size <= x <= x0 + 2 * size and y0 - size <= y <= y0 + 2 * size:
                out[-1].append((x, y))
            elif out[-1]:
                out.append([])
        return [a for a in out if len(a) >= 2]

    def to_svg(self):
        x0, y0, size = self._bounds()
        sw = FMT.format(size / 300.0)
        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{FMT.format(x0)} {FMT.format(-y0 - size)} '
            f'{FMT.format(size)} {FMT.format(size)}">',
            f'<g fill="none" stroke-width="{sw}">',
        ]
        colors = ["#1f6fb2", "#b23a1f", "#3ab21f"]
        for idx, (arcs, css) in enumerate(self.conic_arcs):
            color = colors[idx % len(colors)]
            for arc in arcs:
                for piece in self._clip(arc, x0, y0, size):
                    lines.append(f'<path class="{css}" stroke="{color}" '
                                 f'd="{_path(piece)}"/>')
        for a, b in self.segments:
            lines.append(f'<path class="chord" stroke="#222222" '
                         f'd="{_path([a, b])}"/>')
        r = FMT.format(size / 120.0)
        fs = FMT.format(size / 18.0)
        for (x, y), label in self.markers:
            lines.append(f'<circle cx="{FMT.format(x)}" cy="{FMT.format(-y)}" '
                         f'r="{r}" fill="#222222"/>')
            lines.append(f'<text x="{FMT.format(x + size / 60.0)}" '
                         f'y="{FMT.format(-y - size / 60.0)}" '
                         f'font-size="{fs}" fill="#222222" '
                         f'stroke="none">{label}</text>')
        lines.append('</g>')
        lines.append('</svg>')
        return "\n".join(lines) + "\n"


def render_process(cfg, result, seed=0):
    """SVG for a process run: both conics, the chord polygon (closed runs
    draw the full polygon, open runs the first ``MAX_CHORDS`` chords) and the
    tangency points, labelled."""
    if cfg.field.size is not None:
        raise DegenerateInputError(
            "finite-field configurations have no canonical real embedding")
    fig = SvgFigure()
    fig.add_conic(cfg.outer, "outer", seed)
    fig.add_conic(cfg.inner, "inner", seed)
    closed = result.outcome == "closed"
    cs = [st.c for st in result.orbit[:None if closed else MAX_CHORDS + 1]]
    # a closed polygon's last chord returns to c1; an open path has none
    ends = cs[1:] + (cs[:1] if closed else [None])
    for i, (c, end) in enumerate(zip(cs, ends)):
        if end is not None:
            fig.add_segment(c, end)
        fig.add_marker(c, f"c{i + 1}")
    for i, t in enumerate(cfg.in_field_tangencies()):
        fig.add_marker(t, f"t{i + 1}")
    return fig.to_svg()
