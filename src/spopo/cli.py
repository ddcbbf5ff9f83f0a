"""Command line runner: spopo <subcommand> --config <path> --out <dir> [--seed N].

Subcommands: supermodes | squeezing | pulses | metrology.  Each output is a
CSV file with a one-line header preceded by '#' metadata lines (tool version,
config hash, seed), apart from metrology's ``summary.json``; stdout lists the
outputs a run wrote.  Errors are emitted as a JSON object on stderr with a
stable code and mapped to exit codes 2 (config), 3 (physics domain), 4
(numerical).

A run directory also keeps two records, which are not outputs, behind one
key line (``_spectrum_key``: the config, the versions and the kernel
source); a later run of the same config in that directory reads them
instead of solving the kernel again, and a missing, mismatched or truncated
record is recomputed:

- ``.spopo-spectrum`` (SPECTRUM_FILE), every unscaled gain, written and read
  by supermodes and squeezing;
- ``.spopo-basis`` (BASIS_FILE), the run's one Lanczos basis of
  max(1, n_modes_dump) unscaled gains and modes, written and read by
  supermodes, metrology, and pulses on an energy pump.

A subcommand imports only the layers it runs: the supermode layer inside
``_every_gain`` and ``_run_basis``, pulses and metrology inside their
runners.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cavity import resonant_r, squeezing_spectrum, threshold_gain
from .config import REFERENCE_ENERGY, ScenarioConfig, load_scenario
from .errors import (AtThresholdError, ConfigError, SpopoError,
                     ValidationError)
from .kernel import build_kernel

_FLOAT_FMT = "%.12g"
#: rows of a block formatted by one % operation
_CHUNK_ROWS = 4096
#: a run directory's unscaled Takagi values, behind the key line of
#: ``_spectrum_key``; read and written by supermodes and squeezing
SPECTRUM_FILE = ".spopo-spectrum"
#: a run directory's basis of ``_run_basis``, behind the same key line; read
#: and written by supermodes, metrology, and pulses on an energy pump
BASIS_FILE = ".spopo-basis"


def _write_csv(path: Path, header: list[str], blocks, metadata: dict) -> Path:
    """Write '#' metadata lines, the header and the rows of ``blocks`` in turn.

    A block is a list of columns, one per header entry and at least one of
    them an array: a 1-d array, or a number that holds for the whole block
    and is formatted once, by _FLOAT_FMT, into that block's line.  Float
    arrays print by _FLOAT_FMT, _CHUNK_ROWS rows per %; integer arrays print
    by %d, which is the same text as _FLOAT_FMT for |n| < 10**12.  Every
    integer column here is an index or a length of an allocated array, so
    it stays below that: 10**12 int64 values take 8 TB.
    """
    with open(path, "w") as out:
        for key, value in metadata.items():
            out.write(f"# {key} = {value}\n")
        out.write(",".join(header) + "\n")
        for block in blocks:
            arrays = [column for column in block
                      if isinstance(column, np.ndarray)]
            line = ",".join(
                ("%d" if column.dtype.kind in "iu" else _FLOAT_FMT)
                if isinstance(column, np.ndarray) else _FLOAT_FMT % column
                for column in block) + "\n"
            n_rows = len(arrays[0])
            for start in range(0, n_rows, _CHUNK_ROWS):
                stop = min(start + _CHUNK_ROWS, n_rows)
                # row-major values: column j fills every len(arrays)-th slot
                values = [None] * (len(arrays) * (stop - start))
                for j, column in enumerate(arrays):
                    values[j::len(arrays)] = column[start:stop].tolist()
                out.write((line * (stop - start)) % tuple(values))
    return path


def _metadata(cfg: ScenarioConfig, seed) -> dict:
    return {"spopo_version": __version__, "config_hash": cfg.config_hash,
            "seed": "none" if seed is None else seed}


def _n_max(cfg: ScenarioConfig) -> int:
    return int(cfg.run.get("N_max", 100))


def _scale_gains(cfg: ScenarioConfig, gains: np.ndarray):
    """Exact gain rescaling for pump_ratio configs, plus the threshold check.

    Gains scale as sqrt(pulse_energy), so a threshold ratio translates into a
    pure multiplicative factor on the reference-energy gains; mode shapes are
    energy independent.  Returns the gains, the threshold gain and the
    effective pulse energy.
    """
    gth = threshold_gain(cfg.cavity, cfg.pump.ceo_half).gain
    if cfg.pump_ratio is not None:
        if gains[0] <= 0:
            if cfg.pump_ratio > 0:
                raise ValidationError(
                    "cannot scale to a nonzero pump ratio: reference gain is 0")
            scale = 0.0
        else:
            scale = cfg.pump_ratio * gth / gains[0]
        gains = gains * scale
        energy = REFERENCE_ENERGY * scale**2
    else:
        energy = cfg.pump.pulse_energy
    if gains.size and gains[0] >= gth:
        raise AtThresholdError(
            f"pump drives g0 = {gains[0]:.6g} at/above threshold {gth:.6g}")
    return gains, gth, energy


def _spectrum_key(cfg: ScenarioConfig) -> bytes:
    """Hex sha256 of what the unscaled Takagi values and modes depend on.

    That is the canonical config JSON that ``config_hash`` digests, the spopo
    and numpy versions, and the source of the modules that build and solve
    the kernel; each part goes in behind its length.
    """
    here = Path(__file__).parent
    digest = hashlib.sha256()
    for part in (json.dumps(cfg.raw, sort_keys=True,
                            separators=(",", ":")).encode(),
                 __version__.encode(), np.__version__.encode(),
                 *(here.joinpath(name).read_bytes()
                   for name in ("config.py", "kernel.py", "supermodes.py"))):
        digest.update(b"%d\n" % len(part))
        digest.update(part)
    return digest.hexdigest().encode()


def _read_record(path: Path, key: bytes, size: int) -> bytes | None:
    """The ``size`` bytes that follow the first line ``key`` of ``path``;
    None when the file is missing or unreadable, or has another first line
    or another length."""
    try:
        with open(path, "rb") as stored:
            body = stored.read(size + 1) \
                if stored.readline(len(key)) == key else b""
    except OSError:
        return None
    return body if len(body) == size else None


def _store_record(path: Path, data: bytes | None) -> None:
    """Put ``data`` in ``path`` through a per-process temporary name; None
    means the file already holds it.

    A record is a shortcut, not an output: a directory that refuses it keeps
    what it held, and the run's outputs and exit code stay as they are.
    """
    if data is None:
        return
    temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        temporary.write_bytes(data)
        os.replace(temporary, path)
    except OSError:
        try:
            temporary.unlink(missing_ok=True)
        except OSError:
            pass


def _gain_cutoff(cfg: ScenarioConfig) -> float:
    from .supermodes import DEFAULT_GAIN_CUTOFF

    return cfg.run.get("gain_cutoff", DEFAULT_GAIN_CUTOFF)


def _every_gain(cfg: ScenarioConfig, outdir: Path):
    """Every unscaled Takagi value of the run's kernel, and the kept count.

    The values are read from ``outdir/SPECTRUM_FILE`` when its first line is
    ``_spectrum_key(cfg)`` and n_points float64 values follow; otherwise
    they are ``takagi_values`` of the kernel.  ``eigvalsh`` gives the same
    bits to every process that computes them, so no output depends on which
    subcommand computed the file.

    Returns the kept-mode count, the values, the kernel (None when the values
    were read) and the bytes of the file for ``_store_record`` to write after
    the run's last output (None when the values were read).
    """
    from .supermodes import kept_count, takagi_values

    key = _spectrum_key(cfg) + b"\n"
    body = _read_record(outdir / SPECTRUM_FILE, key, 8 * cfg.grid.n_points)
    kernel = pending = None
    if body is None:
        kernel = build_kernel(cfg.grid, cfg.pump, cfg.crystal)
        gains = takagi_values(kernel.matrix)
        pending = key + gains.astype("<f8").tobytes()
    else:
        gains = np.frombuffer(body, "<f8")
    return kept_count(gains, _gain_cutoff(cfg)), gains, kernel, pending


def _n_modes_dump(cfg: ScenarioConfig) -> int:
    return int(cfg.run.get("n_modes_dump", 8))


def _run_basis(cfg: ScenarioConfig, outdir: Path, kernel=None):
    """The run's one Lanczos basis: the top k = max(1, n_modes_dump)
    supermodes of its kernel, at most n_points of them, with unscaled gains.

    The basis is read from ``outdir/BASIS_FILE`` when its first line is
    ``_spectrum_key(cfg)`` and k float64 gains and the n_points x k
    complex128 mode samples, row by row, follow; a basis read so carries no
    kernel.  Otherwise it is ``schmidt_decompose(kernel, n_modes=k)``, of
    ``kernel`` when given.  Every process that computes it takes the same
    Lanczos steps from the same start vector, so no output depends on which
    subcommand computed the file.

    Returns the basis and the bytes of the file for ``_store_record`` to
    write after the run's last output (None when the basis was read).
    """
    from .supermodes import SupermodeBasis, schmidt_decompose

    n = cfg.grid.n_points
    # a zero kernel keeps no mode; takagi still gives it a basis
    k = min(max(1, _n_modes_dump(cfg)), n)
    key = _spectrum_key(cfg) + b"\n"
    body = _read_record(outdir / BASIS_FILE, key, 8 * k + 16 * n * k)
    if body is not None:
        return SupermodeBasis.from_modes(
            np.frombuffer(body, "<f8", k),
            np.frombuffer(body, "<c16", offset=8 * k).reshape(n, k),
            cfg.grid, cfg.pump.rep_period, _gain_cutoff(cfg)), None
    if kernel is None:
        kernel = build_kernel(cfg.grid, cfg.pump, cfg.crystal)
    basis = schmidt_decompose(kernel, _gain_cutoff(cfg), n_modes=k,
                              rep_period=cfg.pump.rep_period)
    return basis, (key + basis.gains.astype("<f8").tobytes()
                   + basis.modes_freq.astype("<c16").tobytes())


def run_supermodes(cfg: ScenarioConfig, outdir: Path, seed=None) -> list[Path]:
    n_kept, values, kernel, new_spectrum = _every_gain(cfg, outdir)
    gains, gth, energy = _scale_gains(cfg, values)
    n_dump = min(n_kept, _n_modes_dump(cfg))
    new_basis = None
    if n_dump:
        basis, new_basis = _run_basis(cfg, outdir, kernel)
        if kernel is None:
            kernel = basis.kernel
        modes = basis.modes_freq
        if np.abs(basis.gains[:n_dump] - values[:n_dump]).max() \
                > 1e-12 * values[0]:
            # Lanczos gains that stray from eigvalsh's: the dump takes the
            # full decomposition, and the record keeps the Lanczos basis
            from .supermodes import schmidt_decompose

            if kernel is None:
                kernel = build_kernel(cfg.grid, cfg.pump, cfg.crystal)
            modes = schmidt_decompose(kernel, _gain_cutoff(cfg),
                                      rep_period=cfg.pump.rep_period
                                      ).modes_freq
    meta = _metadata(cfg, seed)
    meta.update(threshold_gain=_FLOAT_FMT % gth,
                effective_pulse_energy=_FLOAT_FMT % energy,
                n_kept=n_kept)
    written = [_write_csv(outdir / "gains.csv", ["index", "gain"],
                          [[np.arange(gains.size), gains]], meta)]
    omegas = cfg.grid.omegas
    for n in range(n_dump):
        mode = modes[:, n]
        written.append(_write_csv(
            outdir / f"mode_{n:03d}.csv", ["omega", "re_psi", "im_psi"],
            [[omegas, mode.real, mode.imag]], meta))
    if cfg.run.get("dump_kernel", False):
        if kernel is None:
            kernel = build_kernel(cfg.grid, cfg.pump, cfg.crystal)
        matrix = kernel.matrix
        n_points = cfg.grid.n_points
        kmeta = dict(meta, shape=f"{n_points}x{n_points}", order="row-major")
        # (re, im) lines of a few matrix rows at a time, so no column or
        # value list of the whole kernel is built
        step = max(1, _CHUNK_ROWS // matrix.shape[1])
        blocks = ([rows.real.ravel(), rows.imag.ravel()]
                  for rows in np.split(matrix, range(step, len(matrix), step)))
        written.append(_write_csv(outdir / "kernel.csv", ["re", "im"], blocks,
                                  kmeta))
    _store_record(outdir / SPECTRUM_FILE, new_spectrum)
    _store_record(outdir / BASIS_FILE, new_basis)
    return written


def run_squeezing(cfg: ScenarioConfig, outdir: Path, seed=None) -> list[Path]:
    n_kept, values, _, new_spectrum = _every_gain(cfg, outdir)
    gains, gth, _ = _scale_gains(cfg, values)
    theta_max = cfg.run.get("theta_max", np.pi)
    theta_points = int(cfg.run.get("theta_points", 121))
    thetas = np.linspace(-theta_max, theta_max, theta_points)
    spectrum = squeezing_spectrum(gains[:n_kept], cfg.cavity,
                                  cfg.pump.ceo_half, thetas)
    blocks = [[thetas, mode, spectrum.var_x[mode], spectrum.var_p[mode],
               spectrum.epr[mode]] for mode in range(spectrum.gains.size)]
    meta = _metadata(cfg, seed)
    meta.update(threshold_gain=_FLOAT_FMT % gth)
    written = [_write_csv(outdir / "squeezing.csv",
                          ["theta", "mode", "var_x", "var_p", "epr_variance"],
                          blocks, meta)]
    _store_record(outdir / SPECTRUM_FILE, new_spectrum)
    return written


def run_pulses(cfg: ScenarioConfig, outdir: Path, seed=None) -> list[Path]:
    from .pulses import covariance, duan_sum, min_variance_curve

    new_basis = None
    if cfg.pump_ratio is not None:
        gth = threshold_gain(cfg.cavity, cfg.pump.ceo_half).gain
        g0 = cfg.pump_ratio * gth
    else:
        # g0 alone: the run basis's, as in metrology; no eigvalsh
        basis, new_basis = _run_basis(cfg, outdir)
        gains, gth, _ = _scale_gains(cfg, basis.gains)
        g0 = float(gains[0])
    r = resonant_r(cfg.cavity, cfg.pump.ceo_half)
    n_max = _n_max(cfg)
    meta = _metadata(cfg, seed)
    meta.update(threshold_gain=_FLOAT_FMT % gth)
    ns = np.arange(1, n_max + 1)
    sigma2, theta = min_variance_curve(g0, r, ns)
    written = [_write_csv(outdir / "sigma2.csv",
                          ["N", "g", "r", "sigma2_abs", "sigma2_normalized",
                           "theta_sol"],
                          [[ns, g0, cfg.cavity.r, sigma2, sigma2 / 0.5, theta]],
                          meta)]
    n_duan = min(n_max, 12)
    if n_duan >= 2:
        cov = covariance(g0, r, n_duan)
        seps = np.arange(1, n_duan)
        sums = np.array([duan_sum(cov, 0, d) for d in seps])
        written.append(_write_csv(outdir / "duan.csv",
                                  ["separation", "duan_sum"], [[seps, sums]],
                                  meta))
    if cfg.run.get("dump_matrices", False):
        cov = covariance(g0, r, min(n_max, 64))
        for name, mat in (("v_plus", cov.v_plus), ("v_minus", cov.v_minus)):
            header = [f"c{j}" for j in range(cov.n_pulses)]
            written.append(_write_csv(outdir / f"{name}.csv", header,
                                      [list(mat.T)], meta))
    _store_record(outdir / BASIS_FILE, new_basis)
    return written


def run_metrology(cfg: ScenarioConfig, outdir: Path, seed=None) -> list[Path]:
    from .metrology import improvement_curve, optimal_probe

    # the bound reads g0 and psi0 alone: column 0 of the run basis
    basis, new_basis = _run_basis(cfg, outdir)
    gains, gth, _ = _scale_gains(cfg, basis.gains)
    r = resonant_r(cfg.cavity, cfg.pump.ceo_half)
    if "ratios" in cfg.run:
        ratios = [float(x) for x in cfg.run["ratios"]]
    elif cfg.pump_ratio is not None:
        ratios = [cfg.pump_ratio]
    else:
        ratios = [float(gains[0] / gth)]
    n_max = _n_max(cfg)
    curve = improvement_curve(cfg.cavity, ratios, n_max, cfg.pump.ceo_half)
    # every refusal comes before the first file is written
    probe = optimal_probe(basis, cfg.crystal.omega0, r,
                          int(cfg.run.get("probe_pulses", 8)),
                          cfg.run.get("n_bar0", 1e6), gain0=float(gains[0]))
    meta = _metadata(cfg, seed)
    meta.update(threshold_gain=_FLOAT_FMT % gth)
    blocks = [[ratio, curve.n_values, sigma2, improvement, asymptote]
              for ratio, sigma2, improvement, asymptote in zip(
                  curve.ratios, curve.sigma2, curve.improvement,
                  curve.asymptote)]
    written = [_write_csv(outdir / "metrology.csv",
                          ["ratio", "N", "sigma2", "improvement", "asymptote"],
                          blocks, meta)]
    summary = {
        "spopo_version": __version__,
        "config_hash": cfg.config_hash,
        "threshold_gain": gth,
        "ratios": list(map(float, curve.ratios)),
        "asymptote": list(map(float, curve.asymptote)),
        "min_pulses_to_asymptote": list(map(int, curve.min_pulses_to_asymptote)),
    }
    summary_path = outdir / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    written.append(summary_path)

    times = (np.arange(probe.n_pulses)[:, None] * basis.rep_period
             + basis.time_grid[None, :]).ravel()
    pmeta = _metadata(cfg, seed)
    pmeta.update(amplitude=_FLOAT_FMT % probe.amplitude,
                 spectral_spread_sq=_FLOAT_FMT % probe.spectral_spread_sq)
    written.append(_write_csv(
        outdir / "probe.csv", ["t", "re", "im"],
        [[times, probe.envelope.real, probe.envelope.imag]], pmeta))
    _store_record(outdir / BASIS_FILE, new_basis)
    return written


_RUNNERS = {
    "supermodes": run_supermodes,
    "squeezing": run_squeezing,
    "pulses": run_pulses,
    "metrology": run_metrology,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spopo",
        description="Below-threshold SPOPO quantum properties: supermodes, "
                    "squeezing spectra, pulse covariances, time-delay bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("supermodes", "gain spectrum and supermode dumps"),
            ("squeezing", "squeezing / EPR spectra versus comb shift theta"),
            ("pulses", "pulse covariance, minimum variance, Duan sweeps"),
            ("metrology", "time-delay improvement curves and optimal probe")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="reserved for future stochastic features; "
                            "recorded in output metadata")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_scenario(args.config)
        outdir = Path(args.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"--out is not a usable directory: {exc}") from exc
        written = _RUNNERS[args.command](cfg, outdir, args.seed)
    except (SpopoError, MemoryError) as exc:
        if isinstance(exc, MemoryError):
            # a size that cannot be allocated is a config value out of
            # range; numpy's message names the size
            exc = ConfigError("the config asks for more memory than can be "
                              f"allocated: {exc}")
        error = {"error": exc.code, "message": str(exc)}
        if isinstance(exc, AtThresholdError) and exc.theta is not None:
            error["theta"] = exc.theta
        print(json.dumps(error), file=sys.stderr)
        return exc.exit_code
    for path in written:
        print(path)
    return 0


def console_main() -> int:
    """Entry of the ``spopo`` script and of ``python -m spopo.cli``.

    Runs ``main`` and then freezes every live object, so that the ending
    process skips the garbage collector's final walk over them.  ``main``
    leaves the collector alone: tests and the benchmark call it many times
    in one process.
    """
    import gc   # only the process entry needs it

    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(console_main())
