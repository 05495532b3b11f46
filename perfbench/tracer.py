"""Span tracing of theta_disk's public functions, installed from outside.

The tracer replaces module-level functions of the ``theta_disk`` package by
timing wrappers, from this file, so the package itself carries no tracing
code.  Every wrapped function belongs to a named group such as
``itree.duality`` (``vee`` and ``wedge``).  A call into a group while the
same group is already on the stack (recursion, or ``vee`` calling
``wedge``) runs untimed inside the outer span, so ``calls`` counts entries
into the group from outside it.

Per group the tracer keeps the number of calls, the inclusive time, the
self time (inclusive time minus the time covered by child spans) and, for
enumerators, the total length of the returned lists.  Each span keeps its
group, start, end and parent span in flat arrays and is written out after
the pass.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

# group -> (module, function names, whether the call returns a list whose
# length is reported as ``results``)
GROUPS = {
    "itree.enumerate_morphisms": ("itree", ("enumerate_morphisms",), True),
    "itree.duality": ("itree", ("vee", "wedge"), False),
    "itree.enumerate_objects": ("itree", ("enumerate_objects",), True),
    "ordinal.enumerate_maps": (
        "ordinal",
        ("enumerate_ord_maps", "enumerate_interval_maps"),
        True,
    ),
    "ordinal.duality": (
        "ordinal",
        ("vee_obj", "vee_map", "wedge_obj", "wedge_map"),
        False,
    ),
    "forest.restrict": ("forest", ("restrict",), False),
    "forest.make_level_tree": ("forest", ("make_level_tree",), False),
    "labeled.enumerate_cropped_trees": (
        "labeled",
        ("enumerate_cropped_trees",),
        True,
    ),
    "labeled.enumerate_labeled_mors": (
        "labeled",
        ("enumerate_labeled_mors",),
        True,
    ),
    "labeled.validate": (
        "labeled",
        ("validate_cropped", "validate_constrained"),
        False,
    ),
    "labeled.xi": (
        "labeled",
        ("xi_interval", "xi_ordinal", "xi_interval_mor", "xi_ordinal_mor", "xi_inverse"),
        False,
    ),
    "labeled.con_dualize": ("labeled", ("con_dualize", "con_dualize_mor"), False),
    "disk.enumerate_disk_morphisms": ("disk", ("enumerate_disk_morphisms",), True),
    "disk.phi": ("disk", ("phi_obj", "phi_mor", "phi_inverse_obj"), False),
    "globular.enumerate_glob_morphisms": (
        "globular",
        ("enumerate_glob_morphisms",),
        True,
    ),
    "globular.sub_globcard": ("globular", ("sub_globcard",), False),
    "ograph.enumerate_ographs": ("ograph", ("enumerate_ographs",), True),
    "ograph.enumerate_ograph_morphisms": (
        "ograph",
        ("enumerate_ograph_morphisms",),
        True,
    ),
    "ograph.gamma": (
        "ograph",
        ("gamma", "gamma_prime", "gamma_mor", "gamma_prime_mor"),
        False,
    ),
    "ograph.upsilon": ("ograph", ("upsilon", "upsilon_prime"), False),
    "omega.enumerate_cells": ("omega", ("enumerate_cells",), True),
    "omega.boundary": ("omega", ("m_source", "m_target"), False),
    "omega.compose_cells": ("omega", ("compose_cells",), False),
    "omega.comparison_L": ("omega", ("comparison_L",), False),
    "omega.enriched": (
        "omega",
        ("enriched_m_source", "enriched_m_target", "compose_enriched"),
        False,
    ),
    "omega.enumerate_omega_functors": ("omega", ("enumerate_omega_functors",), True),
    "omega.psi": ("omega", ("psi_obj", "psi_mor"), False),
    "cli.dump": ("cli", ("_dump",), False),
}

# counter name -> (module, class) whose exact instances are counted
CONSTRUCTED = {
    "itree.ITreeObj.constructed": ("itree", "ITreeObj"),
    "itree.ITreeMor.constructed": ("itree", "ITreeMor"),
    "ordinal.OrdMap.constructed": ("ordinal", "OrdMap"),
    "forest.LevelTree.constructed": ("forest", "LevelTree"),
    "disk.DiskMor.constructed": ("disk", "DiskMor"),
    "globular.GlobMor.constructed": ("globular", "GlobMor"),
    "omega.Cell.constructed": ("omega", "Cell"),
    "omega.EnrichedCell.constructed": ("omega", "EnrichedCell"),
}

MAX_STORED_SPANS = 250_000


class Tracer:
    """Aggregates and spans for the wrapped groups of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.results: list[int] = []
        self._active: list[bool] = []
        # open spans: [span index, group, start, time covered by children]
        self._stack: list[list] = []
        self.span_group = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans = 0
        self.constructed: dict[str, int] = {}

    def reset(self) -> None:
        """Zero every figure and drop the stored spans; wrappers stay."""
        n = len(self.names)
        self.calls, self.results = [0] * n, [0] * n
        self.total_s, self.self_s = [0.0] * n, [0.0] * n
        for name in self.constructed:
            self.constructed[name] = 0
        for spans in (self.span_group, self.span_parent, self.span_start, self.span_end):
            del spans[:]
        self.spans = 0

    def group(self, name: str) -> int:
        if name in self.names:
            return self.names.index(name)
        for column, zero in (
            (self.calls, 0),
            (self.total_s, 0.0),
            (self.self_s, 0.0),
            (self.results, 0),
            (self._active, False),
        ):
            column.append(zero)
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, fn, name: str, results: bool = False):
        """Return ``fn`` timed as one span of group ``name`` per outer call."""
        gid = self.group(name)
        active = self._active
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if active[gid]:
                return fn(*args, **kwargs)
            active[gid] = True
            index = -1
            if self.spans < MAX_STORED_SPANS:
                index = self.spans
                self.span_group.append(gid)
                self.span_parent.append(stack[-1][0] if stack else -1)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            self.spans += 1
            frame = [index, gid, clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self.calls[gid] += 1
                self.total_s[gid] += duration
                self.self_s[gid] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                if index >= 0:
                    self.span_start[index] = frame[2]
                    self.span_end[index] = end
                active[gid] = False
            if results:
                self.results[gid] += len(out)
            return out

        return traced

    def count_constructions(self, cls, name: str) -> None:
        """Count instances of exactly ``cls`` built through its initializer."""
        original = cls.__post_init__
        self.constructed[name] = 0
        counts = self.constructed

        def counted(obj) -> None:
            if type(obj) is cls:
                counts[name] += 1
            original(obj)

        cls.__post_init__ = counted

    def install(self) -> None:
        """Wrap every function named in ``GROUPS`` wherever theta_disk
        refers to it (module globals and keyword defaults of functions),
        the CLI's parsers (``cli.load``), every ``to_dict`` (``cli.dump``)
        and each check in ``verify.CHECKS``; count the constructions of
        the ``CONSTRUCTED`` classes."""
        modules = [
            m for n, m in sys.modules.items()
            if n == "theta_disk" or n.startswith("theta_disk.")
        ]
        replace = {}
        for group, (module, functions, results) in GROUPS.items():
            mod = sys.modules[f"theta_disk.{module}"]
            for fname in functions:
                original = getattr(mod, fname)
                replace[id(original)] = self.wrap(original, group, results)
        cli = sys.modules["theta_disk.cli"]
        for kind, parse in list(cli._PARSERS.items()):
            cli._PARSERS[kind] = self.wrap(parse, "cli.load")
        for klass in _classes(modules):
            method = klass.__dict__.get("to_dict")
            # Bounds and Report serialize verify's own output, not objects.
            if callable(method) and klass.__module__ != "theta_disk.verify":
                klass.to_dict = self.wrap(method, "cli.dump")
        verify = sys.modules["theta_disk.verify"]
        for check, fn in list(verify.CHECKS.items()):
            verify.CHECKS[check] = self.wrap(fn, f"verify.{check}")
        for mod in modules:
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if id(value) in replace:
                    namespace[key] = replace[id(value)]
                kwdefaults = getattr(value, "__kwdefaults__", None)
                if kwdefaults:
                    for arg, default in kwdefaults.items():
                        if id(default) in replace:
                            kwdefaults[arg] = replace[id(default)]
        for counter, (module, cls_name) in CONSTRUCTED.items():
            cls = getattr(sys.modules[f"theta_disk.{module}"], cls_name)
            self.count_constructions(cls, counter)

    def metric(self, group: str, field: str) -> float:
        if group not in self.names:
            return 0
        gid = self.names.index(group)
        return {
            "calls": self.calls,
            "s": self.self_s,
            "total_s": self.total_s,
            "results": self.results,
        }[field][gid]

    def write_spans(self, path: Path) -> None:
        """Write stored spans as tab-separated ``index parent group start
        end`` lines, times in microseconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        stored = min(self.spans, MAX_STORED_SPANS)
        origin = self.span_start[0] if stored else 0.0
        lines = [
            f"# spans={self.spans} stored={stored} columns=index,parent,group,start_us,end_us\n"
        ]
        names = self.names
        for i in range(stored):
            lines.append(
                f"{i}\t{self.span_parent[i]}\t{names[self.span_group[i]]}\t"
                f"{(self.span_start[i] - origin) * 1e6:.1f}\t"
                f"{(self.span_end[i] - origin) * 1e6:.1f}\n"
            )
        path.write_text("".join(lines))


def _classes(modules):
    seen = set()
    for mod in modules:
        for value in vars(mod).values():
            if (
                isinstance(value, type)
                and value.__module__.startswith("theta_disk")
                and value not in seen
            ):
                seen.add(value)
                yield value
