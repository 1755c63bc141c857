"""Model-based discovery probabilities under the two-parameter family.

For PD(alpha, theta) the exact discovery probability collapses to
(l - alpha)/(theta + n), which is what ``PitmanYor`` answers.  The same
number can be reached the long way, through weighted sums of generalized
Stirling numbers, which is how a general Gibbs-type model has to do it
(``GibbsModel.exact_good_turing(model, l, n)``); this demo computes both
and prints the agreement.  Negative alpha gives the classical
finite-population rules: Johnson's estimate, and Jeffreys' for alpha = -1.
"""

from goodturing import GibbsModel, PitmanYor, jeffreys_estimate, johnson_estimate


def main():
    model = PitmanYor(0.5, 0.5)
    n = 20
    print(f"PD(alpha=0.5, theta=0.5), n = {n}")
    print("   l   closed form      Stirling route    |difference|")
    for l in (1, 2, 3, 5, 10, 20):
        closed = model.exact_good_turing_closed(l, n)
        long_way = GibbsModel.exact_good_turing(model, l, n)
        print(f"  {l:2d}   {closed:.12f}   {long_way:.12f}   {abs(closed - long_way):.1e}")

    print()
    print("predictive rule for a sample with multiplicities (3, 2, 1):")
    comp = (3, 2, 1)
    for size in comp:
        print(f"  seen-{size}-times species next: {model.exact_good_turing_closed(size, sum(comp)):.4f}")
    print(f"  new species next:          {model.predict_new(6, 3):.4f}")

    print()
    print("alpha < 0 with theta = |alpha| s is a symmetric finite Dirichlet:")
    s, l, n = 10, 2, 30
    half = PitmanYor(-0.5, s=s)
    print(f"  PD(-0.5, s={s}):  {half.exact_good_turing_closed(l, n):.6f}"
          f"   Johnson (l+0.5)/(n+0.5s): {johnson_estimate(0.5, s, l, n):.6f}")
    flat = PitmanYor(-1.0, s=s)
    print(f"  PD(-1.0, s={s}):  {flat.exact_good_turing_closed(l, n):.6f}"
          f"   Jeffreys (l+1)/(n+s):     {jeffreys_estimate(s, l, n):.6f}")

    print()
    print("species accumulation E[K_n] under three discounts (theta = 1):")
    print("     n    alpha=0    alpha=0.5  alpha=0.75")
    models = [PitmanYor(a, 1.0) for a in (0.0, 0.5, 0.75)]
    for n in (10, 100, 1000):
        row = "  ".join(f"{m.expected_species_structural(n):9.2f}" for m in models)
        print(f"  {n:4d}  {row}")


if __name__ == "__main__":
    main()
