"""Outside-in span tracing of the ainfinity layers, from the benchmark's
files only.

Each traced callable is wrapped where it is looked up.  `cli`, `kernels`,
`perturbation` and `battery` bind library functions with `from`-imports, so
patching only the defining module would leave their calls untraced and
count that time as the caller's self time.  `install` therefore replaces
every global of every loaded `ainfinity` module that holds the original
function; methods are looked up on their class, so they are patched there.

Spans stay in memory as parallel lists (name, parent, start, end) until the
run ends; `summary` turns them into per-name calls, inclusive and self time.
"""

import functools
import sys
import time

# (span name, defining module, attribute path)
SPANS = [
    ("retracts.harmonious_retract", "ainfinity.retracts", "harmonious_retract"),
    ("ainfty.check_structure", "ainfinity.ainfty", "check_structure"),
    ("ainfty.check_morphism", "ainfinity.ainfty", "check_morphism"),
    ("ainfty.check_homotopy", "ainfinity.ainfty", "check_homotopy"),
    ("ainfty.compose_morphisms", "ainfinity.ainfty", "compose_morphisms"),
    ("kernels.transfer", "ainfinity.kernels", "transfer"),
    ("kernels.p_kernels", "ainfinity.kernels", "p_kernels"),
    ("kernels.q_kernels", "ainfinity.kernels", "q_kernels"),
    ("kernels.check_p_identity", "ainfinity.kernels", "check_p_identity"),
    ("kernels.check_q_identity", "ainfinity.kernels", "check_q_identity"),
    ("graded.compose_product", "ainfinity.graded", "compose_product"),
    ("coalgebra.lift_coderivation", "ainfinity.coalgebra", "lift_coderivation"),
    ("coalgebra.lift_morphism", "ainfinity.coalgebra", "lift_morphism"),
    ("coalgebra.lift_homotopy", "ainfinity.coalgebra", "lift_homotopy"),
    ("coalgebra.compose", "ainfinity.coalgebra", "CoalgebraOperator.compose"),
    ("coalgebra.add", "ainfinity.coalgebra", "CoalgebraOperator.__add__"),
    ("coalgebra.identity", "ainfinity.coalgebra", "CoalgebraOperator.identity"),
    ("perturbation.build_perturbation", "ainfinity.perturbation",
     "build_perturbation"),
    ("perturbation.hpl_transfer", "ainfinity.perturbation", "hpl_transfer"),
    ("perturbation.verify_nilpotency", "ainfinity.perturbation",
     "PerturbationData.verify_nilpotency"),
    ("perturbation.compare_hpl_vs_kernels", "ainfinity.perturbation",
     "compare_hpl_vs_kernels"),
    ("perturbation.check_annihilation_lemmas", "ainfinity.perturbation",
     "check_annihilation_lemmas"),
    ("battery.equivalence_battery", "ainfinity.battery", "equivalence_battery"),
    ("corpus.random_dga", "ainfinity.corpus", "random_dga"),
    ("docio.load", "ainfinity.docio", "load"),
    ("docio.dump", "ainfinity.docio", "dump"),
]

# lifts whose returned operators are sized into `coalgebra.lift.entries`
LIFTS = {"coalgebra.lift_coderivation", "coalgebra.lift_morphism",
         "coalgebra.lift_homotopy"}

SPAN_NAMES = [name for name, _, _ in SPANS]


class Tracer:
    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.stack = []
        self.lift_entries = 0

    def wrap(self, name, fn):
        names, parents, starts, ends = (self.names, self.parents, self.starts,
                                        self.ends)
        stack, clock = self.stack, time.perf_counter
        count_entries = name in LIFTS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(None)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count_entries:
                self.lift_entries += result.entry_count()
            return result

        return span

    def install(self):
        """Wrap every name in SPANS wherever a loaded ainfinity module binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "ainfinity"
                                         or key.startswith("ainfinity."))]
        for name, module_name, path in SPANS:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, self.wrap(name, raw))
                continue
            original = getattr(owner, path)
            wrapped = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def summary(self):
        """Per span name: calls, inclusive time (outermost spans of that
        name only, so recursion is not counted twice) and self time; plus
        the time covered by root spans."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += dur[i]
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for name in SPAN_NAMES}
        covered = 0.0
        for i in range(n):
            name = self.names[i]
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += dur[i] - child_time[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                entry["total_s"] += dur[i]
            if self.parents[i] < 0:
                covered += dur[i]
        return stats, covered
