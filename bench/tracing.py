"""In-process spans around the public functions of each ecmoments module.

Modules import functions by name (cli imports compute_records, report imports
block_stats), so a wrapper must replace the name in every module that looks
it up, not only in the module that defines it. `install` does that for every
loaded ecmoments module holding the original function object.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

# (layer, defining module, function); spans are named module.function, and a
# layer's self time sums the self times of its functions' spans
LAYERS = (
    ("traces.sweep", "traces", "traces_mod_p"),
    ("traces.power_sums", "traces", "moment_sums"),
    ("modular.legendre_table", "modular", "build_legendre_table"),
    ("families.invariants", "families", "compute_invariants"),
    ("io.parse_families", "io", "parse_family_file"),
    ("io.read_csv", "io", "read_moments_csv"),
    ("io.write_csv", "io", "write_moments_csv"),
    ("io.atomic_write", "io", "atomic_write_text"),
    ("runner", "runner", "run_moments"),
    ("runner", "runner", "compute_records"),
    ("closed_forms.verify_family", "closed_forms", "verify_family"),
    ("discovery.fit", "discovery", "discover"),
    ("bias.stats", "bias", "residual_series"),
    ("bias.stats", "bias", "odd_coefficient_series"),
    ("bias.stats", "bias", "block_stats"),
    ("bias.stats", "bias", "histogram"),
    ("bias.stats", "bias", "catalan_check"),
    ("bias.stats", "bias", "nagao_rank_estimate"),
    ("svg.render", "svg", "emit_histogram_svg"),
    ("report", "report", "run_report"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    child_time: float = 0.0
    args: tuple = ()


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    undo: list = field(default_factory=list)
    layer_of: dict = field(default_factory=dict)

    def span(self, name: str, fn, args=()):
        parent = self.stack[-1] if self.stack else None
        sp = Span(name, time.perf_counter(), parent=parent, args=args)
        self.stack.append(sp)
        try:
            return fn()
        finally:
            sp.end = time.perf_counter()
            self.stack.pop()
            if parent is not None:
                parent.child_time += sp.end - sp.start
            self.spans.append(sp)

    def install(self) -> None:
        """Wrap every LAYERS function wherever an ecmoments module binds its name."""
        for layer, mod_name, fn_name in LAYERS:
            orig = getattr(sys.modules["ecmoments." + mod_name], fn_name)
            wrapper = self._wrap("%s.%s" % (mod_name, fn_name), orig)
            self.layer_of["%s.%s" % (mod_name, fn_name)] = layer
            for name, mod in list(sys.modules.items()):
                if name.startswith("ecmoments") and getattr(mod, fn_name, None) is orig:
                    setattr(mod, fn_name, wrapper)
                    self.undo.append((mod, fn_name, orig))

    def _wrap(self, name: str, orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return self.span(name, lambda: orig(*args, **kwargs), args)

        return wrapper

    def uninstall(self) -> None:
        for mod, fn_name, orig in reversed(self.undo):
            setattr(mod, fn_name, orig)
        self.undo.clear()

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for sp in self.spans:
            layer = self.layer_of.get(sp.name, sp.name)
            out[layer] = out.get(layer, 0.0) + (sp.end - sp.start - sp.child_time)
        return out

    def count(self, name: str, parent_prefix: str | None = None) -> int:
        """Spans named `name`, only those directly under a span named parent_prefix* if given."""
        return sum(1 for sp in self.spans if sp.name == name and (
            parent_prefix is None
            or (sp.parent is not None and sp.parent.name.startswith(parent_prefix))))
