"""When is the robust equilibrium provably unique?

The uniqueness certificate bounds, per sub-channel, how strongly the
best-response map can amplify a perturbation: the normalized cross-gain
matrix contributes min(symmetrized spectral radius, spectral norm) and
the hedging multipliers contribute the 2-norm of their deviations from
one. If the sum stays below 1 on every sub-channel the map is a
contraction, so exactly one equilibrium exists and best-response play
finds it from anywhere.

On a symmetric two-user channel with cross gain alpha the certificate
reads alpha + eps * sqrt(2) < 1, which makes the pass/fail frontier easy
to see on a grid.

Run:  python3 demos/certificates.py
"""
import numpy as np

from riwfa import (
    ChannelRealization,
    PowerConstraints,
    Scenario,
    UncertaintySpec,
    check_async_convergence,
    check_rne_uniqueness,
)


def symmetric_scenario(alpha: float, eps: float) -> Scenario:
    gains = np.zeros((2, 2, 2))
    gains[0, 0] = gains[1, 1] = 1.0
    gains[0, 1] = gains[1, 0] = alpha
    return Scenario(
        channel=ChannelRealization(gains=gains,
                                   noise=np.array([[0.2, 0.4], [0.3, 0.5]])),
        constraints=PowerConstraints.uniform(2, 2, 1.0),
        uncertainty=UncertaintySpec.uniform(2, 2, eps))


def main() -> None:
    alphas = (0.1, 0.3, 0.5, 0.7)
    epsilons = (0.0, 0.2, 0.4, 0.6)

    print("uniqueness certificate margin (negative = pass):")
    header = "  alpha \\ eps " + "".join(f"{e:>9}" for e in epsilons)
    print(header)
    for alpha in alphas:
        cells = []
        for eps in epsilons:
            sc = symmetric_scenario(alpha, eps)
            cert = check_rne_uniqueness(sc)
            mark = " " if cert.passed else "*"
            cells.append(f"{cert.margin:+8.3f}{mark}")
        print(f"  {alpha:>11} " + "".join(cells))
    print("  (* = certificate fails; alpha + eps*sqrt(2) >= 1)")
    print()

    print("the asynchronous-convergence certificate answers a harder")
    print("question: updates may react to any profile from the recent past,")
    print("so it checks the map against interference upper bounds rather")
    print("than the realized interference:")
    for alpha, eps in ((0.1, 0.0), (0.1, 0.2), (0.3, 0.2), (0.3, 0.4)):
        sc = symmetric_scenario(alpha, eps)
        cert = check_async_convergence(sc)
        verdict = "pass" if cert.passed else "fail"
        print(f"  alpha = {alpha}, eps = {eps}: margin {cert.margin:+.3f} "
              f"({verdict})")


if __name__ == "__main__":
    main()
