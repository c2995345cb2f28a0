"""Demo: geometric forgetting of the initial window.

Iterates two different starting windows under the same observed counts and
prints the latent gap per step together with the fitted decay slope.
"""

import math

import numpy as np

from odmlab.conditions import check_loglin
from odmlab.model import LatentWindow, ModelOrder, ModelSpec, embed_step, project_latent


def main():
    spec = ModelSpec(family="loglin", order=ModelOrder(1, 1))
    theta = spec.params(0.1, [0.5], [0.3])
    print("stability report:", check_loglin(spec, theta).verdict)

    z1 = LatentWindow(x=(1e5,), u=())
    z2 = LatentWindow(x=(0.0,), u=())
    rng = np.random.default_rng(606)
    gaps = []
    for y in rng.poisson(2.0, 60):
        z1 = embed_step(spec, theta, z1, int(y))
        z2 = embed_step(spec, theta, z2, int(y))
        gaps.append(abs(project_latent(spec, z1) - project_latent(spec, z2)))
    slope = float(np.polyfit(np.arange(1, 61), np.log(gaps), 1)[0])
    print(f"fitted log-gap slope {slope:.6f} (ln a1 = {math.log(abs(theta.a[0])):.6f})")
    for k in (1, 5, 10, 20, 40, 60):
        print(f"  k={k:3d}  gap={gaps[k - 1]:.3e}")


if __name__ == "__main__":
    main()
