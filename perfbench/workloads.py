"""The benchmark's workloads: named sets of experiment configs.

Each workload distils one family of the acceptance suite and stresses one
layer of the library while bypassing the others; NOTES.md says why each was
chosen.  The workload seed is the only input that varies between runs and
it reaches the library only as ``ExperimentConfig.seed``.
"""

from __future__ import annotations

SHORT_GRID = (4, 8, 16, 32, 64)

WORKLOADS = {
    "short-words": {
        "configs": {
            "self-int-walk": dict(experiment="self-int", sampler="walk",
                                  n_grid=SHORT_GRID, samples=200),
            "self-int-ball": dict(experiment="self-int", sampler="ball",
                                  n_grid=SHORT_GRID, samples=200),
            "fixed-curve-int": dict(experiment="fixed-curve-int",
                                    sampler="walk", n_grid=SHORT_GRID,
                                    samples=200, alpha="a"),
        },
        "pool_config": "self-int-walk",
        "input_sets": 1,
    },
    "long-words": {
        "configs": {
            "self-int-walk": dict(experiment="self-int", sampler="walk",
                                  n_grid=(640, 1280, 2560), samples=3),
            "spiral": dict(experiment="spiral", sampler="walk",
                           n_grid=(250, 500, 1000, 2000), samples=100),
        },
        "pool_config": "spiral",
        "input_sets": 2,
    },
    "lifting": {
        "configs": {
            "lifting-grid": dict(experiment="lifting", sampler="walk",
                                 n_grid=(6, 10, 14, 18, 22), samples=80,
                                 d_max=5),
            "lifting-n40": dict(experiment="lifting", sampler="walk",
                                n_grid=(40,), samples=80, d_max=5),
        },
        "pool_config": "lifting-grid",
        "input_sets": 5,
    },
    "enumerate-and-minimize": {
        "configs": {
            "conj-ball": dict(experiment="conj-ball", n_grid=(6, 8, 10),
                              samples=1),
            "minimizer": dict(experiment="minimizer", sampler="walk",
                              n_grid=(80,), samples=2),
        },
        "pool_config": "minimizer",
        "input_sets": 1,
    },
}


def configs(workload: str, seed: int, k: int = 0) -> dict:
    """Config name -> ``ExperimentConfig`` of input set ``k`` of
    ``workload`` for the workload seed ``seed``."""
    from randcurve.stats import ExperimentConfig

    return {name: ExperimentConfig(seed=1000 * seed + k, jobs=1, **kw)
            for name, kw in WORKLOADS[workload]["configs"].items()}
