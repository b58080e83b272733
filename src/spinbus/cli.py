"""Command-line front end.

Single values are printed as JSON on stdout; sweeps are written as CSV with a
JSON manifest sidecar (<out>.manifest.json) recording the resolved request,
tool version, seed, and a sha256 digest of the CSV.  Re-running a command
from its manifest (--config manifest.json) reproduces the CSV byte for byte.

Exit codes: 0 success, 1 computation-domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone

from . import __version__
# amplitudes and scans (below) load with the CLI, not on first use like
# hashlib: perfbench/tracing.py wraps only the modules loaded when it
# installs, so deferring them would leave a traced run blind to them
from .amplitudes import amplitude_rp
from .chain import BALLISTIC_C_DEFAULT, PROFILES, UNIFORM, build_chain, real_number, \
    whole_number
from .fidelity import CLASSES, GRID_VALUES, METHODS, AverageFidelity, avg_fidelity_mc, \
    general_values
from .reduced import RECEIVER_BASIS, evolve_receiver_pair
from .scans import ScanRequest, default_t_max, field_sweep, max_over_time, threshold_field
from .spectral import decompose_chain
from .states import SeededSampler, TwoQubitState

_SCAN_HEADER = ("N", "n", "h", "t_star", "fbar_max", "class", "seed")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit_csv(out, command, params, header, rows) -> None:
    text = _csv_text(header, rows)
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", newline="") as fh:
        fh.write(text)
    import hashlib  # here, not at the top: OpenSSL loads only when a manifest is written

    manifest = {
        "tool": "spinbus",
        "version": __version__,
        "command": command,
        "params": params,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": {
            os.path.basename(out): {
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "rows": len(rows),
            }
        },
    }
    with open(out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _Usage(Exception):
    """Bad or missing arguments; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Reports a flag it cannot parse as a usage error, exit code 2.

    A flag must be spelled in full: --N is not read as --N-list, nor --h as
    --h-list, so a command rejects every flag it does not declare.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(2, f"usage error: {message}\n{self.format_usage()}")


def _load_config(path, options) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "params" in data and "command" in data:
        data = data["params"]
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - set(options))
    if unknown:
        raise _Usage(f"config file {path} sets {unknown}, which this command does not take")
    return {k: v for k, v in data.items() if v is not None}


def _resolve(args) -> dict:
    """Request parameters: the config file's, overridden by the flags given."""
    options = [k for k in vars(args) if k not in ("command", "config", "out", "func")]
    params = _load_config(args.config, options) if args.config else {}
    for key in options:
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    return params


def _require(params, key, flag) -> object:
    if params.get(key) is None:
        raise _Usage(f"missing required {flag}")
    return params[key]


def _require_time(params) -> float:
    t = real_number("t", _require(params, "t", "--t"))
    if not math.isfinite(t):
        raise _Usage(f"--t must be finite, got {t}")
    return t


def _chain_from(params, state_class=None, barrier=False):
    """The chain params describe.  Without --n, a chain with a barrier field,
    or one whose field a search sets (barrier), gets the blocks of
    state_class: one site for one-qubit, two for the two-qubit classes."""
    n_sites = _require(params, "N", "--N")
    field = real_number("h", params.get("h", 0.0))
    block = params.get("n")
    if block is None and (barrier or field > 0):
        block = 1 if state_class == "one-qubit" else 2
    return build_chain(n_sites, block, field,
                       params.get("profile", UNIFORM),
                       real_number("c", params.get("c", BALLISTIC_C_DEFAULT)))


def _parse_list(name, text, kind=float) -> list:
    """Comma-separated values as kind, or a list as stored in a config.

    A config's integers are passed on as they stand: the library rejects 7.9
    as a chain length or site, where int() would truncate it to 7.  A config's
    reals must be JSON numbers: float() would read true as 1.0.  An empty
    item, as in 1,,2 or 2, is a usage error, not a value left out.
    """
    if isinstance(text, (list, tuple)):
        return list(text) if kind is int else [real_number(name, x) for x in text]
    items = str(text).split(",")
    if not all(x.strip() for x in items):
        raise _Usage(f"--{name.replace('_', '-')} has an empty item: {text!r}")
    return [kind(x) for x in items]


def cmd_spectrum(args) -> int:
    params = _resolve(args)
    dec = decompose_chain(_chain_from(params))
    rows = [(k + 1, float(lam)) for k, lam in enumerate(dec.eigenvalues)]
    _emit_csv(args.out, "spectrum", params, ("k", "lambda"), rows)
    return 0


def cmd_amplitude(args) -> int:
    params = _resolve(args)
    sources = _parse_list("sources", _require(params, "sources", "--sources"), int)
    targets = _parse_list("targets", _require(params, "targets", "--targets"), int)
    t = _require_time(params)
    dec = decompose_chain(_chain_from(params))
    amp = amplitude_rp(dec, targets, sources, t)
    print(json.dumps({"real": amp.real, "imag": amp.imag, "modulus": abs(amp)}))
    return 0


def _parse_state(text) -> TwoQubitState:
    vals = _parse_list("state", text)
    if len(vals) != 8:
        raise _Usage("--state needs eight comma-separated reals "
                     "(re,im pairs of the |00>,|01>,|10>,|11> amplitudes)")
    amps = [complex(vals[2 * k], vals[2 * k + 1]) for k in range(4)]
    return TwoQubitState.from_vector(amps)


def cmd_rdm(args) -> int:
    params = _resolve(args)
    state = _parse_state(_require(params, "state", "--state"))
    t = _require_time(params)
    dec = decompose_chain(_chain_from(params))
    rho = evolve_receiver_pair(dec, state, t)
    print(json.dumps({
        "basis": list(RECEIVER_BASIS),
        "real": rho.real.tolist(),
        "imag": rho.imag.tolist(),
    }))
    return 0


def cmd_fidelity(args) -> int:
    params = _resolve(args)
    cls = params.get("state_class", "general")
    if cls not in CLASSES:
        raise _Usage(f"--class must be one of {CLASSES}")
    samples, phase_opt = params.get("samples"), params.get("phase_opt", False)
    if phase_opt and (cls != "general" or samples is not None):
        raise _Usage("--phase-opt needs --class general and takes no --samples")
    if samples is not None and cls == "one-qubit":
        raise _Usage("--samples needs --class general, omega1 or omega2")
    if samples is None and params.get("seed") is not None:
        raise _Usage("--seed needs --samples: the closed forms draw nothing")
    t = _require_time(params)
    dec = decompose_chain(_chain_from(params, cls))
    if samples is not None:
        sampler = SeededSampler(params.get("seed", 0))
        result = avg_fidelity_mc(dec, t, samples, sampler, state_class=cls)
    elif phase_opt:
        result = AverageFidelity(float(general_values(dec, (t,), phase_opt=True)[0]),
                                 METHODS["general"] + "-phase-opt")
    else:
        result = AverageFidelity(float(GRID_VALUES[cls](dec, (t,))[0]), METHODS[cls])
    print(json.dumps({"value": result.value, "stderr": result.stderr,
                      "method": result.method}))
    return 0


def _scan_request(params, chain, cls) -> ScanRequest:
    t_max = params.get("t_max")
    if t_max is None:
        t_max = default_t_max(chain.n_sites, cls)
    return ScanRequest(
        chain,
        fidelity_class=cls,
        t_max=real_number("t_max", t_max),
        threads=params.get("threads", 1),
    )


def _echoed_seed(params) -> int:
    # scans hold no randomness; the seed column only echoes the request
    return whole_number("seed", params.get("seed", 0), 0)


def _scan_row(chain, result, params):
    return (chain.n_sites, chain.block, result.field, result.t_star,
            result.fbar_max, result.fidelity_class, _echoed_seed(params))


def cmd_scan_time(args) -> int:
    params = _resolve(args)
    cls = params.get("state_class", "general")
    chain = _chain_from(params, cls)
    request = _scan_request(params, chain, cls)
    result = max_over_time(request)
    params_out = dict(params, t_max=request.t_max)
    _emit_csv(args.out, "scan-time", params_out, _SCAN_HEADER,
              [_scan_row(chain, result, params)])
    return 0


def cmd_scan_field(args) -> int:
    params = _resolve(args)
    cls = params.get("state_class", "general")
    fields = _parse_list("h_list", _require(params, "h_list", "--h-list"))
    if not fields:
        raise _Usage("--h-list needs at least one field value")
    chain = _chain_from(dict(params, h=max(fields)), cls)  # block placement only
    request = _scan_request(params, chain, cls)
    results = field_sweep(request, fields)
    rows = [_scan_row(chain, r, params) for r in results]
    params_out = dict(params, h_list=fields, t_max=request.t_max,
                      threads=request.threads)
    _emit_csv(args.out, "scan-field", params_out, _SCAN_HEADER, rows)
    return 0


def cmd_threshold(args) -> int:
    params = _resolve(args)
    cls = params.get("state_class", "omega1")
    n_values = _parse_list("N_list", _require(params, "N_list", "--N-list"), int)
    if not n_values:
        raise _Usage("--N-list needs at least one chain length")
    if "t_max" not in params:
        # the lengths' default windows, which must agree
        windows = {default_t_max(whole_number("N_list", n, 2), cls) for n in n_values}
        if len(windows) > 1:
            raise _Usage("the lengths in --N-list get different default windows "
                         f"{sorted(windows)}; give --t-max")
    # the template of every scan, at h = 0; threshold_field sets each length and field
    chain = _chain_from(dict(params, N=n_values[0]), cls, barrier=True)
    request = _scan_request(params, chain, cls)
    results = threshold_field(request, n_values, **{
        key: params[key] for key in ("target", "h_resolution", "h_cap") if key in params})
    seed = _echoed_seed(params)
    rows = [(r.n_sites, chain.block, r.field, r.t_star, r.fbar_max, cls, seed)
            for r in results]
    params_out = dict(params, N_list=n_values, t_max=request.t_max)
    _emit_csv(args.out, "threshold", params_out, _SCAN_HEADER, rows)
    return 0


_FIGURES = {
    "4a": {"N": 7, "t_max": 2.0e4},
    "4b": {"N": 8, "t_max": 6.0e4},
}


def _run_as(command, params, out, figure) -> int:
    """Run another subcommand on params, each of which must be one of its options."""
    args = _parser().parse_args([command])
    unknown = sorted(set(params) - set(vars(args)))
    if unknown:  # every key is one of reproduce's options, named after its flag
        flags = ", ".join("--" + key.replace("_", "-") for key in unknown)
        raise _Usage(f"--figure {figure} takes no {flags}")
    vars(args).update(params, out=out)
    return args.func(args)


def cmd_reproduce(args) -> int:
    params = _resolve(args)
    figure = str(_require(params, "figure", "--figure"))
    del params["figure"]  # the dispatched command, and so its manifest, has none
    if figure in _FIGURES:
        preset = _FIGURES[figure]
        params.setdefault("N", preset["N"])
        params.setdefault("t_max", preset["t_max"])
        params.setdefault("h_list", [0.0, 2.0, 5.0, 10.0, 15.0, 20.0])
        params.setdefault("state_class", "general")
        return _run_as("scan-field", params, args.out, figure)
    if figure == "5":
        params.setdefault("N_list", [7, 8, 9, 10, 11])
        params.setdefault("state_class", "omega1")
        return _run_as("threshold", params, args.out, figure)
    raise _Usage(f"unknown figure {figure!r}; choose 4a, 4b or 5")


def cmd_verify(args) -> int:
    # here, not at the top: no other command uses the oracle
    from .oracle import verification_battery

    params = _resolve(args)
    checks = verification_battery(seed=params.get("seed", 0))
    for c in checks:
        status = "OK" if c.ok else "FAIL"
        print(f"max deviation {c.name}: {c.max_deviation:.3e} (tol {c.tolerance:.1e}) {status}")
    return 0 if all(c.ok for c in checks) else 1


_CHAIN_FLAGS = {
    "N": {"type": int, "help": "number of chain sites"},
    "n": {"type": int, "help": "sender/receiver block length"},
    "h": {"type": float, "help": "barrier field strength"},
    "profile": {"choices": PROFILES},
    "c": {"type": float, "help": "ballistic endpoint prefactor"},
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged."""
    parser = _Parser(
        prog="spinbus",
        description="Exact state-transfer fidelities for XX chains with barrier fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, chain=tuple(_CHAIN_FLAGS), seed=False, threads=False, out=False):
        p.add_argument("--config", help="JSON config or manifest; flags take precedence")
        if out:
            p.add_argument("--out", help="output CSV path (default: stdout, no manifest)")
        if seed:
            p.add_argument("--seed", type=int)
        if threads:
            p.add_argument("--threads", type=int, help="scans run at once (the fields of a "
                           "sweep, the lengths of a threshold search)")
        for name in chain:
            p.add_argument("--" + name, **_CHAIN_FLAGS[name])

    p = sub.add_parser("spectrum", help="single-particle eigenvalues as CSV")
    add_common(p, out=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("amplitude", help="multi-excitation transition amplitude")
    add_common(p)
    p.add_argument("--sources", help="comma-separated source sites")
    p.add_argument("--targets", help="comma-separated target sites")
    p.add_argument("--t", type=float)
    p.set_defaults(func=cmd_amplitude)

    p = sub.add_parser("rdm", help="receiver-pair density matrix as JSON")
    add_common(p)
    p.add_argument("--state", help="eight reals: re,im pairs of |00>,|01>,|10>,|11>")
    p.add_argument("--t", type=float)
    p.set_defaults(func=cmd_rdm)

    p = sub.add_parser("fidelity", help="average fidelity at one time")
    add_common(p, seed=True)
    p.add_argument("--class", dest="state_class", choices=CLASSES)
    p.add_argument("--t", type=float)
    p.add_argument("--samples", type=int,
                   help="Monte Carlo cross-check with this many sender states")
    p.add_argument("--phase-opt", action="store_true", default=None,
                   help="average after the best odd-sector phase (general class)")
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("scan-time", help="maximize fidelity over a time window")
    add_common(p, seed=True, out=True)
    p.add_argument("--class", dest="state_class", choices=CLASSES)
    p.add_argument("--t-max", dest="t_max", type=float)
    p.set_defaults(func=cmd_scan_time)

    # the field sweep sets --h; the threshold search sets --N and --h
    p = sub.add_parser("scan-field", help="scan-time at several field values")
    add_common(p, chain=("N", "n", "profile", "c"), seed=True, threads=True, out=True)
    p.add_argument("--class", dest="state_class", choices=CLASSES)
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--h-list", dest="h_list", help="comma-separated field values")
    p.set_defaults(func=cmd_scan_field)

    p = sub.add_parser("threshold", help="smallest field reaching a target fidelity")
    add_common(p, chain=("n", "profile", "c"), seed=True, threads=True, out=True)
    p.add_argument("--class", dest="state_class", choices=CLASSES)
    p.add_argument("--N-list", dest="N_list", help="comma-separated chain lengths")
    p.add_argument("--target", type=float)
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--h-cap", dest="h_cap", type=float)
    p.add_argument("--h-resolution", dest="h_resolution", type=float)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("reproduce", help="canned sweeps behind the headline figures")
    add_common(p, chain=("N", "n", "profile", "c"), seed=True, threads=True, out=True)
    p.add_argument("--figure", choices=("4a", "4b", "5"))
    p.add_argument("--h-list", dest="h_list")
    p.add_argument("--N-list", dest="N_list")
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--target", type=float)
    p.add_argument("--h-cap", dest="h_cap", type=float)
    p.add_argument("--h-resolution", dest="h_resolution", type=float)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("verify", help="cross-check determinants against sector evolution")
    add_common(p, chain=(), seed=True)
    p.set_defaults(func=cmd_verify)

    return parser


def parse_and_dispatch(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
