"""Connection relations, generalized generating functions, and orthogonality
sums for Meixner and Krawtchouk polynomials, with exact rational verification.

The package is organized as:

* fields, pochhammer: scalar backends (exact rationals, complex doubles) and
  the rising/q-shifted factorial kernels everything else consumes.
* series: truncated formal power series in t, the object every identity is
  compared on.
* hyper: generalized and two/three-variable hypergeometric series,
  as scalars and lifted to series in t.
* families: the generating-function catalog and polynomial evaluators.
* connection: closed-form connection tables, the power collection method,
  and the independent linear-solve oracle.
* verify: builds both sides of every supported identity and compares them,
  producing machine-readable reports; `acceptance_suite()` is the named
  built-in batch the CLI exposes as `verify --suite acceptance`.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    FieldError,
    HyperconnectError,
    MethodNotApplicableError,
    PoleError,
    SingularConfigurationError,
    SingularSampleError,
    UnknownIdentityError,
    UnsupportedExpansionError,
)
from .fields import EXACT, NUMERIC, FieldTag, numeric, parse_rational
from .pochhammer import (
    INFINITE,
    pochhammer,
    q_pochhammer,
)
from .series import (
    CoefficientStream,
    TruncatedSeries,
    binomial_power,
    compose,
    exp_series,
    geometric_stream,
    mobius_argument,
    q_binomial_series,
)
from .hyper import (
    APPELL_F1,
    HUMBERT_PHI2,
    HUMBERT_PHI2_3,
    LAURICELLA_FD3,
    ArgShape,
    HyperSpec,
    MultiVarSpec,
    hyper_series_in_t,
    linear_arg,
    mobius_arg,
    multivar_eval,
    pfq,
    pfq_eval,
    pfq_eval_with_tail,
)
from .families import (
    FamilyDescriptor,
    catalog,
    family_eval,
    family_row,
    family_rows,
    get_family,
    gf_expand,
    poly_from_gf,
)
from .connection import (
    ConnectionExpansion,
    connect_linear_solve,
    connection_table,
    power_collect,
    relation_ids,
)
from .verify import (
    IdentityCase,
    VerificationReport,
    acceptance_suite,
    batch_verify,
    build_sides,
    summarize,
    verify_case,
    verify_connection_relation,
    verify_gf_identity,
    verify_gf_invariance,
    verify_orthogonality_sum,
)

__version__ = "0.1.0"
