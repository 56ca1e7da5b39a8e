"""Accuracy table: each closed form against a 30-digit reference value.

A row holds a closed form's arguments, its exact value at those doubles to 30
significant digits, and the relative error allowed.  The values were computed
once with mpmath at 400 digits and are pasted in, so the suite needs no mpmath.
The mpmath formulas, with x = 2 theta h:

* rho_norm_h: exp(-theta (k-1) h) sqrt(-expm1(-x) / (2 theta) + exp(-x))
* rho_norm_b: exp(-theta (k-1) h)
* operator_distance_h: sqrt(I + (exp(-a h) - exp(-b h))^2), with
  I = (1 - e^{-2ah})/(2a) - 2 (1 - e^{-(a+b)h})/(a+b) + (1 - e^{-2bh})/(2b)
* operator_distance_b: |exp(-a t) - exp(-b t)| at t = min(t*, h), with
  t* = ln(b/a)/(b - a)
* asymptotic_std, lil_envelope, gaussian_tail_bound: their docstring formulas
* exact_sd: sigma sqrt(-expm1(-2 theta dt) / (2 theta))
* conditional_covariance: sigma^2 / (2 theta) (exp(-theta |t - s|) - exp(-theta (t + s)))
* density: exp(-theta (x - mu)^2 / sigma^2) / (sigma sqrt(pi / theta))

Most allowances are a few units in the last place.  The wider ones name their
cause: the rounded argument of an exponential or the near-rate series'
truncation (below 1e-9 by its docstring).
"""

from decimal import Decimal, localcontext

import pytest

from oufar import (
    OuParams,
    asymptotic_std,
    conditional_moments,
    exact_transition,
    gaussian_tail_bound,
    lil_envelope,
    operator_distance_b,
    operator_distance_h,
    rho_norm_b,
    rho_norm_h,
    stationary_density,
)


def exact_sd(theta, dt, sigma=1.0):
    """The innovation sd of ``exact_transition``."""
    return exact_transition(OuParams(theta=theta, sigma=sigma), dt)[1]


def conditional_covariance(theta, mu, sigma, c, t, s):
    """The covariance of ``conditional_moments``."""
    return conditional_moments(OuParams(theta=theta, mu=mu, sigma=sigma), c, t, s)[1]


def density(theta, sigma, x):
    """``stationary_density`` at mu = 0."""
    return stationary_density(OuParams(theta=theta, sigma=sigma), x)


# the far-rate argv of `oufar norms` whose theta h overflows: theta, theta_hat, h
_FAR = (8.878258163447155e146, 1.135208346256096e-128, 1.1568154093207658e222)
_FAR_SWAPPED = (_FAR[1], _FAR[0], _FAR[2])

# closed form -> rows of (arguments, 30-digit reference, allowed relative error)
_TABLE = {
    rho_norm_h: [  # (theta, k, h)
        ((1e-17, 1, 1.0), "1.41421356237309503819508700641", 1e-15),  # cancelled to 0.0
        ((1e-12, 1, 1.0), "1.41421356237203438862990944801", 1e-15),
        ((0.015, 1, 0.5), "1.21711980490869260454941481716", 1e-15),
        ((0.7, 3, 1.5), "0.105998984938836877477371311379", 1e-15),
        ((0.4, 4, 1.0), "0.321258292682343156761395367692", 1e-15),
        ((5.0, 2, 5.0), "4.39175346298482217411377020216e-12", 1e-14),  # exp(-25)
        ((3.0, 1, 1e-10), "0.999999999750000000043749990888", 1e-15),
        ((1e-300, 1, 1e300), "6.57519853982899632499901249753e149", 1e-15),
        ((1e308, 1, 1e308), "7.07106781186547520519159190377e-155", 1e-15),  # theta h overflows
        ((1e308, 1, 1e-308), "0.367879441171442350913422377639", 1e-15),  # 2 theta overflows
        ((2.225073858507e-311, 1, 9.006490688420996e307), "9.48075190810917648044387981656e153",
         1e-15),  # -expm1(-x) / theta overflows
        ((1.5e-323, 1, 1.3), "1.5165750888103101254925527583", 1e-15),  # theta h is subnormal
        ((1e308, 3, 1e-308), "0.0497870683678639548825807514859", 1e-15),  # theta (k-1) overflows
    ],
    rho_norm_b: [  # (theta, k, h)
        ((0.7, 3, 1.5), "0.122456428252981926533120915251", 1e-15),
        ((0.4, 4, 1.0), "0.301194211912202076581412670158", 1e-15),
        ((1e-17, 5, 1.0), "0.99999999999999996", 1e-15),
        ((2.0, 1000, 0.3), "4.82933738771946198601937582611e-261", 1e-13),  # exp(-599.4)
        ((1e300, 1, 1e300), "1", 0.0),
        ((1e308, 3, 1e-308), "0.135335283236612713464903807052", 1e-15),  # theta (k-1) overflows
    ],
    operator_distance_h: [  # (theta, theta_hat, h)
        ((0.7, 0.7001, 1.5), "7.28581617242260699479341708298e-5", 1e-12),  # near: series
        ((1.0, 1.0000000001, 1.0), "4.64936785964819771286137643461e-11", 1e-15),
        ((1e-80, 1.0000000001e-80, 1e65), "18257426.8240028652889144538854", 1e-13),
        ((0.7, 0.9, 1.5), "0.129071579276214003039785030583", 1e-15),  # far
        ((1.0, 1.0000000000009095, 1e20), "4.54747350886153926227812369216e-13", 1e-15),
        ((1e10, 10000000000.000011, 1e20), "5.72204589843749508872861042619e-21", 1e-15),
        ((800.0, 1.0, 1.0), "0.752193966152968460882232796051", 1e-15),
        ((1.0, 5.0, 10.0), "0.516397780492173957103098276299", 1e-15),
        (_FAR, "6.63662401806203043953397083796e63", 1e-15),  # theta h overflows
        (_FAR_SWAPPED, "6.63662401806203043953397083796e63", 1e-15),
        ((1e308, 1e-300, 1e308), "7.07106781186547515541117478579e149", 1e-15),
    ],
    operator_distance_b: [  # (theta, theta_hat, h)
        ((0.7, 0.9, 1.5), "0.0922108113290814295633005234437", 1e-15),
        ((0.7, 0.7001, 1.5), "5.2550452322574073602221980552e-5", 1e-15),
        ((1.0, 2.0, 0.1), "0.0861066649579777185611942059566", 1e-15),  # the sup at h
        ((800.0, 1.0, 1.0), "0.990429091161721691574766963362", 1e-15),
        ((4.6077459426300906e82, 4.60774594263009e82, 1.0), "5.38116154699606221285067386247e-17",
         1e-15),  # theta_hat / theta is within a few ulps of 1
        (_FAR, "1", 1e-15),  # theta h overflows
        (_FAR_SWAPPED, "1", 1e-15),
        ((1e308, 1e-300, 1e308), "1", 1e-15),
    ],
    asymptotic_std: [  # (theta, T)
        ((0.7, 200.0), "0.083666002653407552143876559031", 1e-15),
        ((5.0, 4000.0), "0.05", 1e-15),
        ((1e-10, 1e10), "1.41421356237309507456314249952e-10", 1e-15),
    ],
    lil_envelope: [  # (theta, T)
        ((0.7, 200.0), "0.152785634435899863676468400183", 1e-15),
        ((1.0, 3.0), "0.354114534422031343943184006923", 2e-15),  # log log 3 = 0.094
        ((5.0, 1e6), "0.00724678123648839119641911611888", 1e-15),
    ],
    gaussian_tail_bound: [  # (sigma, x)
        ((1.0, 0.5), "0.882496902584595402864892143229", 1e-15),
        ((2.0, 3.0), "0.324652467358349729797068137472", 1e-15),
        ((0.1, 1.0), "1.92874984796392848972979257561e-22", 1e-14),  # x / sigma rounds to 10
        ((1.0, 30.0), "3.69388306848725621879342752457e-196", 1e-15),
        ((1e-200, 0.0), "1", 0.0),  # sigma^2 underflows
        ((1e-200, 1e-200), "0.606530659712633423603799534991", 1e-15),
    ],
    exact_sd: [  # (theta, dt[, sigma])
        ((1e-17, 0.02), "0.141421356237309506337988416813", 1e-15),  # exp(-2 theta dt) is 1.0
        ((1e-10, 0.02), "0.141421356237168084995893360774", 1e-15),
        ((0.4, 0.02), "0.140857551912893922763344549257", 1e-15),
        ((1.0, 0.02, 1e200), "1.40018857386562023371581165693e199", 1e-15),  # sigma^2 overflows
    ],
    conditional_covariance: [  # (theta, mu, sigma, c, t, s)
        ((0.7, 1.5, 2.0, -2.0, 0.5, 2.0), "0.503325159030600694813996253004", 5e-16),
    ],
    density: [  # (theta, sigma, x)
        ((1.0, 1e-200, 0.0), "5.64189583547756297046924954236e199", 5e-16),  # sigma^2 underflows
        ((1.0, 1e200, 0.0), "5.64189583547756304024336625775e-201", 1e-15),  # sigma^2 overflows
    ],
}


@pytest.mark.parametrize("fn, args, reference, allowed", [
    pytest.param(fn, args, reference, allowed, id=f"{fn.__name__}{args}")
    for fn, rows in _TABLE.items() for args, reference, allowed in rows
])
def test_closed_form_matches_its_reference(fn, args, reference, allowed):
    got = fn(*args)
    with localcontext() as ctx:
        ctx.prec = 60  # a double and a 30-digit string, both held exactly
        error = abs(Decimal(got) - Decimal(reference)) / Decimal(reference)
    assert error <= allowed, f"{fn.__name__}{args} = {got!r}, relative error {error:.3g}"
