"""Exact p-adic arithmetic, Volkenborn integration, and integral linear forms in p-adic L-values."""

from .arith import (bernoulli_number, bernoulli_poly, binom_padic_data,
                    factorial_valuation, lcm_upto, multinomial_packed, vp)
from .characters import (ChiPadicData, DirichletCharacter, char_make,
                         character_from_spec, chi_padic_data, gen_bernoulli,
                         quadratic_character, trivial_character)
from .cyclotomic import CyclotomicElement
from .errors import (DegreeError, DomainError, EmbeddingError, IntegralityError,
                     NonSplitDenominator, PrecisionError)
from .forms import (FormParameters, LinearFormOverK, PartialFractionTable,
                    RnFunction, build_rn, choose_params, evaluate_form_identity,
                    hurwitz_params, hurwitz_variant_form, lambda_form,
                    partial_fractions, rho_higher, rho_zero)
from .hurwitz import (OmegaSplit, lp_value, lp_values, reduce_to_unit_interval,
                      twisted_zeta, zeta_p_nonpos, zeta_p_pos)
from .padic import Padic, teichmuller, teichmuller_ext, teichmuller_rational
from .polynomials import Poly, RationalFunction, parse_rational_function
from .volkenborn import (PoleData, integral_mahler, integral_pole_powers,
                         integral_riemann, translate_integral)

__version__ = "0.1.0"
