"""Process-pool dispatch shared by the drop runner and the CLI sweeps."""

from concurrent.futures import ProcessPoolExecutor


def pool_map(fn, args, n_jobs):
    """[fn(a) for a in args], on up to n_jobs worker processes when n_jobs > 1.

    fn must be a module-level function, so workers can import it.
    """
    if n_jobs <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    with ProcessPoolExecutor(max_workers=min(n_jobs, len(args))) as pool:
        return list(pool.map(fn, args))
