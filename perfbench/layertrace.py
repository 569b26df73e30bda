"""Self-time spans around calls into fmmbem, installed from outside the package.

Each hook replaces one module function or class method by a wrapper that
times the call, subtracts the time of nested hooked calls and adds the rest
(the self time) to an accumulator keyed by layer and by the benchmark phase
(``setup``, ``rhs`` or ``solve``) that was active.  Hooks are installed by
name, so a target that a later version of the program no longer has is
recorded as missing and the run goes on.
"""

import importlib
import resource
import time
from collections import defaultdict
from contextlib import contextmanager


def peak_rss_mb():
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.phase = None
        self.self_s = defaultdict(float)    # (layer, phase) -> seconds
        self.counts = defaultdict(float)    # name -> count
        self.phase_s = {}                   # phase -> traced wall seconds
        self.phase_end = {}                 # phase -> perf_counter at its end
        self.rss_mb = {}                    # phase -> peak RSS at its end
        self.missing = []                   # hooks or counters not found
        self.apply_marks = []               # (time, self times) at each solve apply
        self._stack = []                    # child seconds of each open span
        self._undo = []

    # -- spans ------------------------------------------------------------------

    def _enter(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _leave(self, layer, start):
        elapsed = time.perf_counter() - start
        child = self._stack.pop()
        self.self_s[(layer, self.phase)] += elapsed - child
        if self._stack:
            self._stack[-1] += elapsed
        return elapsed

    @contextmanager
    def phase_span(self, phase):
        """Root span of one pipeline phase; its self time is un-hooked work."""
        self.phase = phase
        start = self._enter()
        try:
            yield
        finally:
            self.phase_s[phase] = self._leave("unhooked", start)
            self.phase_end[phase] = time.perf_counter()
            self.rss_mb[phase] = peak_rss_mb()
            self.phase = None

    # -- hooks ------------------------------------------------------------------

    def hook(self, module, attr, layer, on_return=None, on_enter=None):
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``) as ``layer``.

        on_enter() runs before the call and on_return(args, kwargs, result)
        after it, both outside the span.  A failure in on_return is recorded
        as missing instead of stopping the run.
        """
        owner_name, _, name = attr.rpartition(".")
        try:
            owner = importlib.import_module(module)
            if owner_name:
                owner = getattr(owner, owner_name)
            target = owner.__dict__[name]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module}.{attr}")
            return
        if isinstance(target, (staticmethod, classmethod)) or not callable(target):
            self.missing.append(f"{module}.{attr}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            start = tracer._enter()
            try:
                result = target(*args, **kwargs)
            finally:
                tracer._leave(layer, start)
            if on_return is not None:
                try:
                    on_return(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    tracer.missing.append(f"count after {module}.{attr}")
            return result

        wrapper.__wrapped__ = target
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, target))

    def uninstall(self):
        for owner, name, target in reversed(self._undo):
            setattr(owner, name, target)
        self._undo.clear()

    # -- readout ----------------------------------------------------------------

    def layer_s(self, layer, phase=None):
        """Summed self time of a layer, in one phase or in all of them."""
        return sum(v for (name, ph), v in self.self_s.items()
                   if name == layer and (phase is None or ph == phase))

    def mark_apply(self):
        self.apply_marks.append((time.perf_counter(), dict(self.self_s)))


def _channels(kwargs):
    """Number of Laplace channels in a far_field/near_field call."""
    q = kwargs.get("charges")
    if q is not None:
        return q.shape[0] if q.ndim == 2 else 1
    d = kwargs["dipoles"]
    return d.shape[0] if d.ndim == 3 else 1


def install(tracer):
    """Hook every traced layer of fmmbem; see README.md for the metric map."""
    c = tracer.counts

    def tree_built(args, kwargs, tree):
        c["octree.cells"] += tree.n_cells
        c["octree.leaves"] += len(tree.leaves)
        c["octree.depth"] = max(c["octree.depth"], tree.n_levels - 1)

    point_pairs = {}   # id(plan) -> P2P point pairs, counted once per plan

    def plan_built(args, kwargs, result):
        plan = args[0]
        point_pairs[id(plan)] = sum(len(t) * len(s) for t, s in plan.p2p_items())
        c["fmm.m2l_pairs"] += len(plan.m2l_pairs)
        c["fmm.m2l_offsets"] += len(plan._m2l_offsets)
        c["fmm.p2p_pairs"] += len(plan.p2p_pairs)
        c["fmm.p2p_point_pairs"] += point_pairs[id(plan)]

    def m2l_done(args, kwargs, L):
        plan, M = args[0], args[1]
        _, n_ch, size = M.shape
        # one (C x size) @ (size x size) complex GEMM per pair, 8 flops per
        # complex multiply-add
        c["fmm.m2l_gflop"] += 8.0 * len(plan.m2l_pairs) * n_ch * size * size / 1e9

    def near_done(args, kwargs, result):
        c["fmm.p2p_interactions"] += point_pairs[id(args[0])] * _channels(kwargs)

    def near_pairs_found(args, kwargs, pairs):
        c["bemop.near_pairs"] += len(pairs)

    def correction_built(args, kwargs, mat):
        c["bemop.correction_nnz"] += mat.nnz
        c["bemop.correction_mb"] += (
            mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes) / 2 ** 20

    def singular_done(args, kwargs, result):
        c["quadrature.singular_panels"] += 1

    def apply_start():
        if tracer.phase == "solve":
            tracer.mark_apply()
            c["solver.applies"] += 1

    tracer.hook("fmmbem.fmm", "build_tree", "octree.build", tree_built)
    tracer.hook("fmmbem.fmm", "dual_traversal", "fmm.traversal")
    tracer.hook("fmmbem.fmm", "FmmPlan.__init__", "fmm.plan", plan_built)
    tracer.hook("fmmbem.fmm", "FmmPlan.far_field", "fmm.far_field")
    tracer.hook("fmmbem.fmm", "FmmPlan._upward", "fmm.upward")
    tracer.hook("fmmbem.fmm", "FmmPlan._m2l_sweep", "fmm.m2l", m2l_done)
    tracer.hook("fmmbem.fmm", "FmmPlan._l2l_sweep", "fmm.downward")
    tracer.hook("fmmbem.fmm", "FmmPlan._l2p", "fmm.downward")
    tracer.hook("fmmbem.fmm", "FmmPlan.near_field", "fmm.p2p", near_done)
    tracer.hook("fmmbem.bemop", "BemOperator._find_near_pairs", "bemop.near_search",
                near_pairs_found)
    tracer.hook("fmmbem.bemop", "BemOperator._correction_matrix", "bemop.correction",
                correction_built)
    tracer.hook("fmmbem.quadrature", "integrate_singular_laplace", "quadrature.singular",
                singular_done)
    tracer.hook("fmmbem.quadrature", "integrate_singular_stokeslet", "quadrature.singular",
                singular_done)
    tracer.hook("fmmbem.bemop", "BemOperator._dense_potential", "bemop.dense")
    tracer.hook("fmmbem.bemop", "BemOperator._layer_apply", "bemop.apply_self")
    tracer.hook("fmmbem.bemop", "BemOperator.assemble_rhs", "bemop.apply_self")
    tracer.hook("fmmbem.bemop", "BemOperator.apply", "bemop.apply_self",
                on_enter=apply_start)
    tracer.hook("fmmbem.solver", "gmres", "solver.arnoldi")


# Per-layer metric -> (layer, phase or None for all phases).  Set-up layers
# run in the set-up phase only.
LAYER_TIMES = {
    "octree.build_s": ("octree.build", None),
    "fmm.traversal_s": ("fmm.traversal", None),
    "fmm.plan_s": ("fmm.plan", None),
    "fmm.upward.rhs_s": ("fmm.upward", "rhs"),
    "fmm.upward.solve_s": ("fmm.upward", "solve"),
    "fmm.m2l.rhs_s": ("fmm.m2l", "rhs"),
    "fmm.m2l.solve_s": ("fmm.m2l", "solve"),
    "fmm.downward.rhs_s": ("fmm.downward", "rhs"),
    "fmm.downward.solve_s": ("fmm.downward", "solve"),
    "fmm.p2p.rhs_s": ("fmm.p2p", "rhs"),
    "fmm.p2p.solve_s": ("fmm.p2p", "solve"),
    "bemop.near_search_s": ("bemop.near_search", None),
    "bemop.correction_s": ("bemop.correction", None),
    "bemop.rhs_dense_s": ("bemop.dense", "rhs"),
    "bemop.rhs_self_s": ("bemop.apply_self", "rhs"),
    "bemop.apply_self.solve_s": ("bemop.apply_self", "solve"),
    "quadrature.singular_s": ("quadrature.singular", None),
    "solver.arnoldi_s": ("solver.arnoldi", "solve"),
}

COUNTS = [
    "octree.cells", "octree.leaves", "octree.depth",
    "fmm.m2l_pairs", "fmm.m2l_offsets", "fmm.p2p_pairs", "fmm.p2p_point_pairs",
    "fmm.m2l_gflop", "fmm.p2p_interactions",
    "bemop.near_pairs", "bemop.correction_nnz", "bemop.correction_mb",
    "quadrature.singular_panels", "solver.applies",
]


def iteration_records(tracer, orders, residuals):
    """One record per GMRES iteration: p, estimated residual, layer seconds.

    An iteration runs from the start of its apply to the start of the next
    (the last one to the end of the solve).  The gmres span stays open over
    all of them, so its share of an iteration is the part of that interval
    that no closed layer span covers.
    """
    marks = tracer.apply_marks + [(tracer.phase_end["solve"], dict(tracer.self_s))]
    records = []
    for k, (p, res) in enumerate(zip(orders, residuals)):
        (t0, before), (t1, after) = marks[k], marks[k + 1]
        layers = {}
        for (layer, phase), value in after.items():
            if phase == "solve" and layer not in ("unhooked", "solver.arnoldi"):
                dt = value - before.get((layer, phase), 0.0)
                if dt > 0.0:
                    layers[layer] = dt
        layers["solver.arnoldi"] = (t1 - t0) - sum(layers.values())
        records.append({"iteration": k + 1, "p": p, "residual_estimate": res,
                        "layer_s": layers})
    return records
