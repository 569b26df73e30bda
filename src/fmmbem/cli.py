"""Command-line front end: mesh generation, solves, and study runs."""

import argparse
import sys

from . import mesh as meshes
from . import bemop, solver, study


def _add_mesh_parser(sub):
    p = sub.add_parser("mesh", help="generate a surface mesh file")
    shapes = p.add_subparsers(dest="shape", required=True)
    sphere = shapes.add_parser("sphere", help="octahedral sphere refinement")
    sphere.add_argument("--level", type=int, required=True)
    sphere.add_argument("--radius", type=float, default=1.0)
    rbc = shapes.add_parser("rbc", help="biconcave-disc surface")
    rbc.add_argument("--level", type=int, required=True)
    scene = shapes.add_parser("scene", help="several randomly oriented spheres")
    scene.add_argument("--cells", type=int, required=True)
    scene.add_argument("--level", type=int, default=3)
    scene.add_argument("--seed", type=int, default=0)
    for sp in (sphere, rbc, scene):
        sp.add_argument("--output", required=True)
        sp.set_defaults(parser=sp)


def _add_solve_parser(sub):
    p = sub.add_parser("solve", help="solve a boundary-value problem; exit status 1 "
                                     "if it did not converge")
    p.add_argument("--problem", choices=["laplace1", "laplace2", "stokes"],
                   required=True)
    p.add_argument("--mesh", required=True)
    p.add_argument("--p", type=int, default=12)
    p.add_argument("--p-min", type=int, default=1,
                   help="lowest order of the relaxed solve; equal to --p for a fixed order")
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--ncrit", type=int, default=126)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--mu", type=float, default=1e-3)
    p.add_argument("--output", required=True,
                   help="solve report path, with each iteration's residual and p")
    p.set_defaults(parser=p)


def _add_study_parser(sub):
    p = sub.add_parser("study", help="run a predefined experiment")
    kinds = p.add_subparsers(dest="study_kind", required=True)
    conv = kinds.add_parser("convergence")
    conv.add_argument("--problem",
                      choices=["laplace1", "laplace2", "stokes", "rbc"],
                      required=True)
    conv.add_argument("--levels", type=int, nargs="+", required=True)
    conv.add_argument("--p", type=int, default=12)
    conv.add_argument("--tol", type=float, default=1e-6)
    relax = kinds.add_parser("relaxation")
    relax.add_argument("--problem", choices=["laplace1", "laplace2", "stokes"],
                       required=True)
    relax.add_argument("--level", type=int, required=True)
    relax.add_argument("--p", type=int, default=12)
    relax.add_argument("--p-min", type=int, default=1)
    relax.add_argument("--tol", type=float, default=1e-5)
    relax.add_argument("--ncrit-candidates", type=int, nargs="+", default=[126])
    scal = kinds.add_parser("scaling")
    scal.add_argument("--sizes", type=int, nargs="+", required=True)
    scal.add_argument("--p", type=int, default=5)
    scal.add_argument("--ncrit", type=int, default=126)
    scal.add_argument("--seed", type=int, default=0)
    for sp in (relax, scal):
        sp.add_argument("--repeats", type=int, default=3)
    for sp in (conv, relax, scal):
        sp.add_argument("--theta", type=float, default=0.5)
        sp.add_argument("--output", required=True)
        sp.set_defaults(parser=sp)


def _run_mesh(args):
    if args.shape == "sphere":
        m = meshes.make_sphere(args.level, radius=args.radius)
    elif args.shape == "rbc":
        m = meshes.make_rbc(args.level)
    else:
        m = meshes.make_scene(args.cells, args.level, seed=args.seed)
    meshes.write_mesh(args.output, m)
    print(f"wrote {m.n_panels} panels ({len(m.vertices)} vertices) to {args.output}")
    return 0


def _run_solve(args):
    solver.check_inputs(args.tol, args.p, args.p_min, args.max_iters)
    bemop.check_parameters(args.theta, args.ncrit, args.mu)
    op, data, _ = study.setup_problem(meshes.read_mesh(args.mesh), args.problem,
                                      theta=args.theta, n_crit=args.ncrit, mu=args.mu)
    res, rec = study.solve_record(op, op.assemble_rhs(data), eta=args.tol,
                                  p_initial=args.p, p_min=args.p_min,
                                  max_iter=args.max_iters)
    if args.problem == "stokes":
        rec["drag"] = list(map(float, op.drag_force(res.x)))
    study.StudyReport("solve", records=[rec], params=dict(
        problem=args.problem, mesh=args.mesh, p=args.p, p_min=args.p_min,
        tol=args.tol, n_crit=args.ncrit, theta=args.theta)).write(args.output)
    status = "converged" if res.converged else "NOT converged"
    print(f"{status} in {res.n_iterations} iterations; report in {args.output}")
    return 0 if res.converged else 1


def _run_study(args):
    if args.study_kind == "convergence":
        rep = study.run_convergence(args.problem, args.levels, p=args.p,
                                    tol=args.tol, theta=args.theta)
    elif args.study_kind == "relaxation":
        rep = study.run_relaxation_comparison(
            args.problem, args.level, tol=args.tol, p_initial=args.p,
            p_min=args.p_min, theta=args.theta,
            ncrit_candidates=args.ncrit_candidates, repeats=args.repeats)
    else:
        rep = study.run_scaling(args.sizes, p=args.p, n_crit=args.ncrit,
                                theta=args.theta, repeats=args.repeats,
                                seed=args.seed)
    rep.write(args.output)
    rep.write_csv(args.output + ".csv")
    for k, v in rep.derived.items():
        print(f"{k}: {v}")
    print(f"report in {args.output}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fmmbem",
        description="Boundary element solver with relaxed multipole orders")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_mesh_parser(sub)
    _add_solve_parser(sub)
    _add_study_parser(sub)
    args = parser.parse_args(argv)
    run = {"mesh": _run_mesh, "solve": _run_solve, "study": _run_study}[args.command]
    # bad input, a flag or a mesh file, raises ValueError or OSError before
    # any report is written; it exits 2 with the reason and the usage of the
    # subcommand that ran, as a bad flag's type does, and leaves exit status
    # 1 to a solve that did not converge
    try:
        return run(args)
    except (ValueError, OSError) as exc:
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
