"""
Experiment harness.

Flat key-value configuration with validated schema, named presets matching
the benchmark protocol, deterministic seeding with independent per-purpose
substreams, the experiment driver, and the CSV records file.
"""

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, asdict, fields, is_dataclass

import numpy as np

from .algorithms import (
    ConfigurationWarning,
    SolverParams,
    advise_parameters,
    baseline_gt_init,
    baseline_gt_step,
    ddrs_init,
    ddrs_step,
    iddrs_step,
)
from .manifold import (
    RankDeficientError,
    manifold_constants,
    project_stiefel,
    random_stiefel,
    subspace_distance,
)
from .metrics import (
    RECORD_FIELDS,
    VIOLATION_KINDS,
    IterationRecord,
    consensus_and_stationarity,
    dre_gap,
    dre_value,
    induced_mean,
    neighborhood_report,
    rate_fit,
)
from .network import (
    gen_complete,
    gen_erdos_renyi,
    gen_ring,
    metropolis_weights,
)
from .problems import (
    DPCAInstance,
    NonFiniteInputError,
    SolverStallError,
    _pixel_blocks,
    _synthetic_blocks,
    load_idx,
)


class ConfigError(ValueError):
    """Base class for configuration problems."""


class UnknownKeyError(ConfigError):
    pass


class MissingRequiredError(ConfigError):
    pass


class ConfigTypeError(ConfigError):
    pass


_PROBLEM_KINDS = ("synthetic", "mnist")
_GRAPH_KINDS = ("ring", "erdos_renyi", "complete")
_ALGO_KINDS = ("ddrs", "iddrs", "baseline_gt")


# The config dataclasses are the schema: each leaf field is the key named by
# its dotted path, converted with its type; a None default means "unset".
@dataclass(frozen=True)
class ProblemConfig:
    kind: str = None
    n: int = 8
    m_per: int = 1000
    d: int = 10
    r: int = 5
    xi: float = 0.8
    seed: int = None
    path: str = None


@dataclass(frozen=True)
class GraphConfig:
    kind: str = None
    p: float = None
    seed: int = None


@dataclass(frozen=True)
class AlgorithmConfig:
    kind: str = None
    eps0: float = 1e-6
    rho: float = 0.9


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run description; serialized into every run's output."""

    problem: ProblemConfig
    graph: GraphConfig
    algorithm: AlgorithmConfig
    alpha: float = None
    beta_hat: float = None
    t: int = 1
    max_iters: int = 500
    log_every: int = 1
    master_seed: int = 0


def _leaf_fields(cls, prefix=""):
    """``(dotted key, field)`` for every leaf field of a config dataclass."""
    for f in fields(cls):
        if is_dataclass(f.type):
            yield from _leaf_fields(f.type, f.name + ".")
        else:
            yield prefix + f.name, f


# dotted key -> the leaf field that declares its type and default.
_KEYS = dict(_leaf_fields(ExperimentConfig))


def parse_config(text):
    """
    Parse and validate a flat ``key = value`` document.

    Lines are UTF-8; ``#`` starts a comment; nested sections use dotted
    keys.  Later assignments override earlier ones (this is how presets are
    overlaid).  Unknown keys, missing required keys, and values of the wrong
    type are rejected with line context.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigTypeError("line %d: expected 'key = value': %r" % (lineno, raw))
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEYS:
            raise UnknownKeyError("line %d: unknown key %r" % (lineno, key))
        convert = _KEYS[key].type
        try:
            values[key] = convert(val)
        except ValueError:
            raise ConfigTypeError("line %d: key %r expects %s, got %r"
                                  % (lineno, key, convert.__name__, val)) from None
    config = _from_keys(ExperimentConfig, values)
    _validate(config)
    return config


def _from_keys(cls, values, prefix=""):
    """A config dataclass whose fields read the keys ``prefix + name``."""
    return cls(**{
        f.name: (_from_keys(f.type, values, f.name + ".") if is_dataclass(f.type)
                 else values.get(prefix + f.name, f.default))
        for f in fields(cls)})


def _at(config, key):
    """The value of a dotted key in a built config."""
    for name in key.split("."):
        config = getattr(config, name)
    return config


def _validate(config):
    p, g, a = config.problem, config.graph, config.algorithm
    for key, kinds in (("problem.kind", _PROBLEM_KINDS),
                       ("graph.kind", _GRAPH_KINDS),
                       ("algorithm.kind", _ALGO_KINDS)):
        kind = _at(config, key)
        if kind is None:
            raise MissingRequiredError("%s is required" % key)
        if kind not in kinds:
            raise ConfigTypeError("%s must be one of %s" % (key, kinds))

    if p.kind == "mnist" and p.path is None:
        raise MissingRequiredError("problem.path is required for mnist")
    if g.kind == "erdos_renyi":
        if g.p is None:
            raise MissingRequiredError("graph.p is required for erdos_renyi")
        if not (0.0 < g.p <= 1.0):
            raise ConfigTypeError("graph.p must lie in (0, 1], got %r" % (g.p,))

    if config.alpha is None and config.beta_hat is None:
        raise MissingRequiredError("exactly one of alpha / beta_hat is required")
    if config.alpha is not None and config.beta_hat is not None:
        raise MissingRequiredError(
            "alpha and beta_hat are both set; exactly one is allowed"
        )
    for key in ("alpha", "beta_hat"):
        value = _at(config, key)
        if value is not None and not 0 < value < np.inf:
            raise ConfigTypeError("%s must be finite and > 0, got %r" % (key, value))
    for key in ("master_seed", "problem.seed", "graph.seed"):
        seed = _at(config, key)
        if seed is not None and seed < 0:
            raise ConfigTypeError("%s must be >= 0, got %d" % (key, seed))

    if not (0.0 < p.xi < 1.0):
        raise ConfigTypeError("problem.xi must lie in (0, 1), got %r" % (p.xi,))
    for key in ("t", "max_iters", "log_every", "problem.r"):
        if _at(config, key) < 1:
            raise ConfigTypeError("%s must be >= 1" % key)
    if p.n < 2:
        raise ConfigTypeError("problem.n must be >= 2 (a network needs two "
                              "agents), got %d" % p.n)
    if g.kind == "ring" and p.n < 3:
        raise ConfigTypeError("ring needs problem.n >= 3, got %d" % p.n)
    if p.kind == "synthetic":
        # An IDX file fixes d for mnist runs; build_run checks it there.
        _check_width(p.d, "problem.d")
        if p.r > p.d:
            raise ConfigTypeError("problem.r = %d exceeds problem.d = %d"
                                  % (p.r, p.d))
        if p.n * p.m_per < p.d:
            raise ConfigTypeError(
                "problem.n * problem.m_per = %d is below problem.d = %d"
                % (p.n * p.m_per, p.d))
    if not (0.0 < a.rho < 1.0):
        raise ConfigTypeError("algorithm.rho must lie in (0, 1), got %r" % (a.rho,))
    if not 0 <= a.eps0 < np.inf:
        raise ConfigTypeError("algorithm.eps0 must lie in [0, inf), got %r" % (a.eps0,))


def _check_width(d, name):
    # St(1, 1) is the two points +-1, and a 1 x 1 Gram has L = 0.
    if d < 2:
        raise ConfigTypeError("%s must be >= 2, got %d" % (name, d))


def _substream_seed(master_seed, index):
    """Deterministic per-purpose seed derived from the master seed."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return int(ss.generate_state(1)[0])


_STREAM_DATA, _STREAM_GRAPH, _STREAM_INIT = 1, 2, 3


def resolved_seeds(config):
    """The effective per-purpose seeds (explicit or master-seed derived)."""
    p_seed = config.problem.seed
    if p_seed is None:
        p_seed = _substream_seed(config.master_seed, _STREAM_DATA)
    g_seed = config.graph.seed
    if g_seed is None:
        g_seed = _substream_seed(config.master_seed, _STREAM_GRAPH)
    return {
        "data": p_seed,
        "graph": g_seed,
        "init": _substream_seed(config.master_seed, _STREAM_INIT),
    }


def _data_source(config):
    """
    ``(d, ground truth, blocks)`` of the configured data: its width, its
    known optimum or None, and an iterator that forms its blocks one agent
    at a time (``gen_synthetic``'s or ``normalize_and_split``'s).
    """
    p = config.problem
    seed = resolved_seeds(config)["data"]
    if p.kind == "synthetic":
        return (p.d, *_synthetic_blocks(p.n, p.m_per, p.d, p.r, p.xi, seed))
    matrix = load_idx(p.path)
    return matrix.shape[1], None, _pixel_blocks(matrix, p.n, seed)


def _build_graph(config):
    g = config.graph
    n = config.problem.n
    if g.kind == "ring":
        return gen_ring(n)
    if g.kind == "complete":
        return gen_complete(n)
    return gen_erdos_renyi(n, g.p, resolved_seeds(config)["graph"])


def resolve_alpha(config, dataset):
    """Explicit step size, or ``beta_hat * n / (total sample count)``."""
    if config.alpha is not None:
        return config.alpha
    return config.beta_hat * dataset.n / dataset.rows


@dataclass(frozen=True)
class RunData:
    """
    What a run keeps of its data: the agents' Gram matrices (their
    instances' own arrays, not copies), the total row count and the known
    optimum, if any.  No data block outlives its agent's set-up.
    """

    grams: list
    rows: int
    ground_truth: object

    @property
    def n(self):
        return len(self.grams)


@dataclass(frozen=True)
class RunSetup:
    """Everything a configured run needs, built deterministically."""

    dataset: object
    problem: list
    W: object
    params: SolverParams
    x0: list
    constants: object
    L: float
    grad0_norm: float


def build_run(config):
    """
    Materialize the agents' instances, mixing matrix, step parameters, and
    initial points.

    Each data block is formed, turned into its agent's ``DPCAInstance`` and
    dropped before the next is formed, so set-up holds at most one block
    and the run none: ``dataset`` is a ``RunData``.

    Initialization is a near-consensus start: a common random point plus
    small per-agent perturbations, so the consensus error is nonzero but
    the iterates begin inside the certified neighborhood.
    """
    d, truth, blocks = _data_source(config)
    r = config.problem.r
    _check_width(d, "the data's width")
    if r > d:
        raise ConfigTypeError("problem.r = %d exceeds the data's width %d"
                              % (r, d))
    problem, rows = [], 0
    for block in blocks:
        problem.append(DPCAInstance(block))
        rows += block.shape[0]
        # Drop the block before the iterator forms the next.
        del block
    dataset = RunData([inst.gram for inst in problem], rows, truth)
    graph = _build_graph(config)
    W = metropolis_weights(graph)
    alpha = resolve_alpha(config, dataset)
    if not 0 < alpha < np.inf:
        # A finite beta_hat can still over- or underflow the step size.
        raise ConfigTypeError("beta_hat = %r gives alpha = %r, not finite "
                              "and > 0" % (config.beta_hat, alpha))
    params = SolverParams(alpha=alpha, t=config.t, eps0=config.algorithm.eps0,
                          rho=config.algorithm.rho)
    consts = manifold_constants(d, r)

    init_rng = np.random.default_rng(
        _substream_seed(config.master_seed, _STREAM_INIT))
    base = random_stiefel(d, r, init_rng).mat
    x0 = [
        project_stiefel(base + 0.05 * init_rng.standard_normal((d, r)))
        for _ in range(dataset.n)
    ]

    L = max(inst.smoothness() for inst in problem)
    if not L > 0:
        # Every Gram is a multiple of I, as blank images give.
        raise ConfigTypeError("the data have no variance: every agent's "
                              "Gram matrix has L = %r" % (L,))
    # egrad(0) = shift * 0 - G 0 = 0 for the shifted PCA loss, so the
    # stacked gradient at zero has norm 0 and needs no Gram product.
    return RunSetup(dataset=dataset, problem=problem, W=W, params=params,
                    x0=x0, constants=consts, L=L, grad0_norm=0.0)


def start_run(config, setup):
    """
    Initial state of a built run and its certified-regime advice.

    This is the one place a configuration is judged against the certified
    regime, for ``ddrs run`` and ``ddrs advise`` alike; the engines only
    compute.  It raises a ConfigurationWarning (not an error) for a
    splitting engine's start whose consensus error lies outside the
    certified x-neighborhood (``neighborhood_report``), and then for an
    iDDRS ``eps0`` not below ``delta2``.

    The splitting engines' initial stack enters ``c2``/``c4_shape``/
    ``c5_shape``; the baseline has no splitting state, so those stay None.
    Only iDDRS solves its proxes inexactly: the advice of an exact run
    (``ddrs``, ``baseline_gt``) takes a tolerance sum of 0, whatever
    ``algorithm.eps0`` says.
    """
    consts, W, params = setup.constants, setup.W, setup.params
    splitting = config.algorithm.kind != "baseline_gt"
    stack = (ddrs_init if splitting else baseline_gt_init)(
        setup.problem, W, params, setup.x0)
    if splitting:
        report = neighborhood_report(stack, consts, W, params.t)
        if "x-neighborhood" in report.violations:
            warnings.warn("initial consensus error %.3e exceeds the certified "
                          "bound %.3e" % (report.x_dev, report.x_bound),
                          ConfigurationWarning)
    # An exact run solves to tolerance 0, below any delta2.
    eps0 = params.eps0 if config.algorithm.kind == "iddrs" else 0.0
    if eps0 >= consts.delta2:
        warnings.warn("eps0 = %.3e is not below delta2 = %.3e; the inexactness "
                      "assumption is violated" % (eps0, consts.delta2),
                      ConfigurationWarning)
    advice = advise_parameters(setup.L, consts.gamma, consts.zeta, W.sigma2,
                               setup.dataset.n, setup.grad0_norm,
                               initial_state=stack if splitting else None,
                               eps0=eps0, rho=params.rho)
    return stack, advice


@contextmanager
def configuration_warnings():
    """
    Keep the ConfigurationWarnings raised inside the block.

    Yields a list that, once the block ends, holds the message of each,
    once each, in the order first raised; they are kept there instead of
    shown, even where a filter would ignore them or show them once.  One
    that a filter turns into an error still raises.  Other warnings are
    shown again, as usual, when the block ends.

    In front of the filters in force goes, for each filter that can match
    a ConfigurationWarning, in the same order, a copy limited to that
    category whose action is "error" if the filter's is and "always"
    otherwise, and behind those an "always" for the rest; the filters are
    restored when the block ends.
    """
    messages = []
    with warnings.catch_warnings(record=True) as caught:
        matching = [f for f in warnings.filters
                    if issubclass(ConfigurationWarning, f[2])]
        warnings.simplefilter("always", ConfigurationWarning)
        for action, message, _, module, lineno in reversed(matching):
            warnings.filterwarnings(
                "error" if action == "error" else "always",
                message.pattern if message else "", ConfigurationWarning,
                module.pattern if module else "", lineno)
        yield messages
    for w in caught:
        if not issubclass(w.category, ConfigurationWarning):
            warnings.warn_explicit(w.message, w.category, w.filename,
                                   w.lineno, source=w.source)
        elif str(w.message) not in messages:
            messages.append(str(w.message))


def run_experiment(config):
    """
    Execute one configured run and return ``(records, summary)``.

    Deterministic given the configuration: dataset, graph, and
    initialization draw from independent substreams of ``master_seed``
    unless explicit seeds are given.  Records are emitted for the initial
    state, every ``log_every``-th iteration, and the final one.  Module
    errors during stepping mark the run ``diverged`` instead of raising.
    Each record reads the stack it measures, its ``k`` included: the run
    steps while ``stack.k < max_iters``.

    A splitting engine's record takes the envelope ``dre`` from one call,
    ``dre_value(s, problem, alpha, x, gx)``: from k = 1 on at the step's
    proxes x and their Gram products gx (None after an exact step), at
    k = 0 at the exact proxes of s, computed there.  Where the step left
    squared prox residuals ``mu_sq`` (iDDRS), ``dre_gap`` bounds the
    value's distance from the exact proxes' and ``mu_sq_max`` is their
    maximum.  iDDRS records no envelope at k = 0, as its first step leaves
    s unchanged; the baseline records none.

    ``rate_slope`` is the log-log slope of the running minimum of
    ``stationarity_sq`` (``rate_fit``) over every record with k >= 1, and
    ``rate_window`` the first and last k it fits; both are None for a run
    with fewer than 5 such records.

    For the splitting engines each step's ``neighborhood_report`` and
    smallest projected singular value are kept, and the summary folds them
    into the count of iterations with any certified-regime violation
    (``neighborhood_violations``), the violations of each kind
    (``violations_by_kind``), the iteration at which each kind first
    occurred (``first_violation_iter``) and the smallest singular value any
    step projected (``sigma_min``); with ``alpha_over_alpha_max`` and
    ``t_over_t_min``, at most and at least 1 inside the certified regime.
    The baseline reports None for all six.  ``prox_rank`` lists each
    agent's ``DPCAInstance.prox_rank``, the eigenpairs its exact prox kept,
    which say whether it took the low-rank or the dense form; it is None
    for a run that took no exact prox.

    The summary's ``warnings`` lists the messages ``start_run`` raised as
    ConfigurationWarnings, as ``configuration_warnings`` keeps them.
    """
    setup = build_run(config)
    problem, W, params = setup.problem, setup.W, setup.params
    consts, alpha = setup.constants, params.alpha
    algo = config.algorithm.kind
    splitting = algo != "baseline_gt"
    with configuration_warnings() as messages:
        stack, advice = start_run(config, setup)

    start_ns = time.perf_counter_ns()

    def make_record(stack):
        # The point every record measures at, projected once.
        xbar = induced_mean(stack.x)
        consensus_sq, stationarity_sq, obj = consensus_and_stationarity(
            stack.x, xbar, problem)
        dre = gap = mu_sq_max = ds = None
        # An exact step leaves x = prox(alpha, s) bitwise, and an inexact
        # one certified proxes with their products gx; the start's x = s is
        # neither.  iDDRS's first step leaves s as it is, so its start
        # records no envelope, and record 1 holds the same one.
        if splitting and (stack.k >= 1 or algo == "ddrs"):
            dre = dre_value(stack.s, problem, alpha,
                            stack.x if stack.k >= 1 else None, stack.gx)
        mu_sq = getattr(stack, "mu_sq", None)
        if mu_sq is not None:
            gap = dre_gap(stack.x, stack.gx, mu_sq, problem, alpha)
            mu_sq_max = float(mu_sq.max())
        if setup.dataset.ground_truth is not None:
            ds = subspace_distance(xbar, setup.dataset.ground_truth)
        return IterationRecord(
            k=stack.k, consensus_sq=consensus_sq,
            stationarity_sq=stationarity_sq, dre=dre, dre_gap=gap, obj=obj,
            ds=ds, mu_sq_max=mu_sq_max,
            wall_ns=time.perf_counter_ns() - start_ns,
        )

    records = []
    status = "ok"
    error = None
    # (k, violated kinds, smallest projected singular value) of each step.
    steps = []
    try:
        records.append(make_record(stack))
        while stack.k < config.max_iters:
            if algo == "ddrs":
                stack = ddrs_step(stack, problem, W, params)
            elif algo == "iddrs":
                stack = iddrs_step(stack, problem, W, params, stack.k)
            else:
                stack = baseline_gt_step(stack, problem, W, params)
            if splitting:
                report = neighborhood_report(stack, consts, W, params.t)
                steps.append((stack.k, report.violations,
                              float(stack.z_sv.min())))
            if stack.k % config.log_every == 0 or stack.k == config.max_iters:
                records.append(make_record(stack))
    except (RankDeficientError, SolverStallError, NonFiniteInputError) as exc:
        status = "diverged"
        error = "%s: %s" % (type(exc).__name__, exc)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        status = "failed"
        error = "%s: %s" % (type(exc).__name__, exc)

    slope = window = None
    fitted = [rec.k for rec in records if rec.k >= 1]
    if len(fitted) >= 5:
        slope, _ = rate_fit(records, "stationarity_sq")
        window = [fitted[0], fitted[-1]]

    by_kind = {kind: sum(kind in v for _, v, _ in steps)
               for kind in VIOLATION_KINDS}
    first_violation = {kind: next((k for k, v, _ in steps if kind in v), None)
                       for kind in VIOLATION_KINDS}
    prox_rank = [inst.prox_rank for inst in problem]
    summary = {
        "status": status,
        "error": error,
        "iterations": stack.k,
        "final": asdict(records[-1]),
        "rate_slope": slope,
        "rate_window": window,
        "neighborhood_violations": (sum(bool(v) for _, v, _ in steps)
                                    if splitting else None),
        "violations_by_kind": by_kind if splitting else None,
        "first_violation_iter": first_violation if splitting else None,
        "sigma_min": min((sv for _, _, sv in steps), default=None),
        "prox_rank": (None if all(k is None for k in prox_rank)
                      else prox_rank),
        "alpha_over_alpha_max": alpha / advice.alpha_max if splitting else None,
        "t_over_t_min": params.t / advice.t_min if splitting else None,
        "advice": asdict(advice),
        "resolved_alpha": alpha,
        "resolved_seeds": resolved_seeds(config),
        "sigma2": W.sigma2,
        "config": asdict(config),
        "warnings": messages,
    }
    return records, summary


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % value


def write_records(records, path):
    """
    Persist records as CSV.

    The header is the fixed field order and absent values are empty cells.
    Floats carry 17 significant digits, so reading them back reproduces the
    in-memory values exactly.
    """
    lines = [",".join(RECORD_FIELDS)]
    for rec in records:
        lines.append(",".join(
            _format_cell(getattr(rec, name)) for name in RECORD_FIELDS))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_records(path):
    """
    Read records written by ``write_records``.

    A file that is empty, whose header is not ``RECORD_FIELDS``, that has a
    row whose cell count differs from the header's, or that has a cell its
    field cannot take raises ValueError naming the file and line.  Only the
    fields a record may leave absent take an empty cell.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    rows = [(lineno, line.split(",")) for lineno, line
            in enumerate(text.splitlines(), start=1) if line]
    if not rows:
        raise ValueError("%s: empty file, expected a CSV header" % (path,))
    lineno, header = rows[0]
    if tuple(header) != RECORD_FIELDS:
        raise ValueError("%s line %d: unexpected CSV header %r"
                         % (path, lineno, header))
    optional = {f.name for f in fields(IterationRecord) if f.default is None}
    records = []
    for lineno, cells in rows[1:]:
        if len(cells) != len(header):
            raise ValueError("%s line %d: %d cells, the header has %d"
                             % (path, lineno, len(cells), len(header)))
        values = {}
        for name, cell in zip(header, cells):
            try:
                values[name] = None if cell == "" and name in optional else (
                    int if name in ("k", "wall_ns") else float)(cell)
            except ValueError:
                raise ValueError("%s line %d: cannot read %s from %r"
                                 % (path, lineno, name, cell)) from None
        records.append(IterationRecord(**values))
    return records


# Step sizes below come from our own coarse grid search over beta_hat (the
# benchmark protocol leaves the tuned values unreported); see README.
_SYNTH_BASE = """
problem.kind = synthetic
problem.n = 8
problem.m_per = 1000
problem.d = 10
problem.r = 5
problem.xi = 0.8
problem.seed = 214748364
graph.seed = 7
algorithm.kind = ddrs
max_iters = 500
log_every = 1
master_seed = 17
"""

_PRESET_TEXTS = {
    "synthetic-er06-t10": _SYNTH_BASE + """
graph.kind = erdos_renyi
graph.p = 0.6
t = 10
beta_hat = 6500
""",
    "synthetic-er06-t1": _SYNTH_BASE + """
graph.kind = erdos_renyi
graph.p = 0.6
t = 1
beta_hat = 3500
""",
    "synthetic-er03-t10": _SYNTH_BASE + """
graph.kind = erdos_renyi
graph.p = 0.3
t = 10
beta_hat = 6000
""",
    "synthetic-er03-t1": _SYNTH_BASE + """
graph.kind = erdos_renyi
graph.p = 0.3
t = 1
beta_hat = 2000
""",
    "synthetic-ring-t10": _SYNTH_BASE + """
graph.kind = ring
t = 10
beta_hat = 6000
""",
    "synthetic-ring-t1": _SYNTH_BASE + """
graph.kind = ring
t = 1
beta_hat = 3000
""",
    "synthetic-er06-baseline": _SYNTH_BASE + """
graph.kind = erdos_renyi
graph.p = 0.6
algorithm.kind = baseline_gt
t = 10
beta_hat = 6000
""",
    "mnist-er06": """
problem.kind = mnist
problem.path = train-images-idx3-ubyte  # place the IDX file here or override
problem.n = 8
problem.r = 5
graph.kind = erdos_renyi
graph.p = 0.6
graph.seed = 7
algorithm.kind = ddrs
t = 10
beta_hat = 6500
max_iters = 200
log_every = 1
master_seed = 17
""",
}

_PRESET_ALIASES = {
    "synthetic-er06": "synthetic-er06-t10",
    "synthetic-er03": "synthetic-er03-t10",
    "synthetic-ring": "synthetic-ring-t10",
}


def preset_text(name):
    """Raw config text of a named preset (for overlaying extra keys)."""
    key = _PRESET_ALIASES.get(name, name)
    if key not in _PRESET_TEXTS:
        known = sorted(set(_PRESET_TEXTS) | set(_PRESET_ALIASES))
        raise ConfigError("unknown preset %r; known: %s" % (name, ", ".join(known)))
    return _PRESET_TEXTS[key]


def preset(name, overrides=""):
    """A named preset as a validated configuration, with optional overrides."""
    return parse_config(preset_text(name) + "\n" + overrides)
