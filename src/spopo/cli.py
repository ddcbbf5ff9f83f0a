"""Command line runner: spopo <subcommand> --config <path> --out <dir>.

Subcommands: supermodes | squeezing | pulses | metrology.  Each output is a
CSV file with a one-line header preceded by '#' metadata lines (tool version,
config hash, then the command's own keys, such as threshold_gain), apart
from metrology's ``summary.json``; stdout lists the outputs a run wrote.
Errors are emitted as a JSON object on stderr with a stable code and mapped
to exit codes 2 (config), 3 (physics domain), 4 (numerical).  A refused run
writes nothing: a runner computes and queues its outputs on its ``_Run``,
and ``_Run.store`` makes ``--out`` and writes them once the runner returns.

A run directory also keeps two records, which are not outputs, behind one
key line (``_spectrum_key``: the grid, pump and crystal, the versions, the
kernel source and the BLAS thread settings); a later run of the same kernel
in that directory reads them instead of solving the kernel again, and a
missing, mismatched or truncated record is recomputed:

- ``.spopo-spectrum`` (SPECTRUM_FILE), every unscaled gain, written and read
  by supermodes and squeezing;
- ``.spopo-basis`` (BASIS_FILE), the run's one Lanczos basis of
  max(1, n_modes_dump) unscaled gains and modes, written and read by
  supermodes, metrology, and pulses on an energy pump.

``main`` hands each runner a ``_Run``, which holds the operating point, builds
the kernel, reads or computes the records on first use, and, once the runner
returns, writes the queued outputs and then the computed records.  A
subcommand imports only its layers: the supermode layer inside ``_Run``,
pulses and metrology in their runners.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .cavity import resonant_r, squeezing_spectrum, threshold_gain
from .config import ScenarioConfig, load_scenario
from .errors import (AtThresholdError, ConfigError, SpopoError,
                     ValidationError)
from .kernel import build_kernel

_FLOAT_FMT = "%.12g"
#: rows of a block formatted by one % operation
_CHUNK_ROWS = 4096
#: a run directory's unscaled Takagi values (``_Run.values``), behind the key
#: line of ``_spectrum_key``
SPECTRUM_FILE = ".spopo-spectrum"
#: a run directory's run basis (``_Run.basis``), behind the same key line
BASIS_FILE = ".spopo-basis"
#: the environment variables that set OpenBLAS's thread count
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                          "OMP_NUM_THREADS")


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


def _metadata(cfg: ScenarioConfig, **extra) -> dict:
    return {"spopo_version": __version__, "config_hash": cfg.config_hash,
            **extra}


def _spectrum_key(cfg: ScenarioConfig) -> bytes:
    """Hex sha256 of what the unscaled Takagi values and modes depend on.

    That is the parsed kernel inputs (the grid, the pump and the crystal,
    not the cavity's round-trip phase; a pump_ratio config's pump holds
    REFERENCE_ENERGY, whatever its ratio), the spopo and numpy versions, the
    source of the modules that build and solve the kernel, and the BLAS
    threading that OpenBLAS is told: the _BLAS_THREAD_VARIABLES (None when
    unset) and the usable CPU count; each part goes in behind its length.
    """
    here = Path(__file__).parent
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    threads = [os.environ.get(name) for name in _BLAS_THREAD_VARIABLES]
    digest = hashlib.sha256()
    for part in (repr((cfg.grid, cfg.pump, cfg.crystal)).encode(),
                 __version__.encode(), np.__version__.encode(),
                 repr((threads, cpus)).encode(),
                 *(here.joinpath(name).read_bytes()
                   for name in ("config.py", "kernel.py", "supermodes.py"))):
        digest.update(b"%d\n" % len(part))
        digest.update(part)
    return digest.hexdigest().encode()


def _store_record(path: Path, data: bytes) -> None:
    """Put ``data`` in ``path`` through a per-process temporary name.

    A record is a shortcut, not an output: a directory that refuses it keeps
    what it held, and the run's outputs and exit code stay as they are.
    """
    temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        temporary.write_bytes(data)
        os.replace(temporary, path)
    except OSError:
        try:
            temporary.unlink(missing_ok=True)
        except OSError:
            pass


class _Run:
    """One subcommand's run of a config into ``outdir``: its operating point
    and what it reads of the kernel, each built on first use and at most once.

    - ``threshold``, ``g0``: the operating point, g_th and the top gain at
      the run's pump: pump_ratio * g_th, with no kernel, or the run basis's
      top gain ``scaled`` to an energy pump, with no eigvalsh.
    - ``kernel``: the joint kernel.
    - ``values``: every unscaled Takagi value, in SPECTRUM_FILE.
    - ``basis``: the run basis, the top k = max(1, n_modes_dump) supermodes
      (at most n_points) with unscaled gains, in BASIS_FILE.

    A runner queues each output with ``write``; ``store``, the one write
    site, makes ``outdir`` and writes them once the runner returns, so a
    refused run writes nothing.  A record is read when its first line is
    ``_spectrum_key`` and a body of the right length follows; otherwise it
    is computed, and ``store`` writes it after the outputs.
    For one numpy, BLAS build and BLAS thread count, ``eigvalsh`` gives the
    same bits to every process that computes them, and the Lanczos steps
    start from the same vector, so no output depends on which subcommand
    computed a record.  Across BLAS thread counts the gains differ in their
    last bits, below ``n_kept`` too (from index 63 of 66 kept at 341 points,
    by at most 1.3e-17 of g0), and so does ``squeezing.csv``; at 1361 points
    so do the modes and ``probe.csv``.  So the key holds the thread
    variables and the CPU count.  That is what OpenBLAS is told, not what
    it does: the process cannot ask the library how many threads it runs.
    """

    def __init__(self, cfg: ScenarioConfig, outdir: Path):
        self.cfg = cfg
        self.outdir = outdir
        self._outputs = {}
        self._pending = {}

    @cached_property
    def _key(self) -> bytes:
        return _spectrum_key(self.cfg) + b"\n"

    def _record(self, name: str, size: int, compute) -> bytes:
        """The ``size`` bytes of record ``name`` after the key line, read
        from ``outdir`` or else ``compute()``d and kept for ``store``."""
        try:
            with open(self.outdir / name, "rb") as stored:
                body = stored.read(size + 1) \
                    if stored.readline(len(self._key)) == self._key else b""
        except OSError:
            body = b""
        if len(body) != size:
            body = compute()
            self._pending[name] = self._key + body
        return body

    def write(self, name: str, *content) -> None:
        """Queue output ``name``: a text, or the header, blocks and
        metadata of a ``_write_csv``."""
        self._outputs[name] = content

    def store(self) -> list[Path]:
        """Make ``outdir``, write the queued outputs in turn and then the
        computed records; the outputs' paths."""
        try:
            self.outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"--out is not a usable directory: {exc}") from exc
        for name, content in self._outputs.items():
            if len(content) == 1:
                (self.outdir / name).write_text(*content)
            else:
                _write_csv(self.outdir / name, *content)
        for name, data in self._pending.items():
            _store_record(self.outdir / name, data)
        return [self.outdir / name for name in self._outputs]

    @cached_property
    def threshold(self) -> float:
        return threshold_gain(self.cfg.cavity).gain

    def scaled(self, gains: np.ndarray):
        """``gains`` at the run's pump and the factor that took them there;
        refuses a scale that is not finite, and a top gain at or above the
        threshold.  Gains scale as sqrt(pulse_energy), so a pump_ratio is
        one factor on its pump's REFERENCE_ENERGY gains."""
        cfg, gth = self.cfg, self.threshold
        scale = 1.0
        if cfg.pump_ratio is not None:
            # a zero or subnormal reference gain leaves no finite factor
            with np.errstate(divide="ignore", over="ignore"):
                scale = cfg.pump_ratio and cfg.pump_ratio * gth / gains[0]
            if not np.isfinite(scale):
                raise ValidationError("cannot scale to a nonzero pump ratio: "
                                      f"reference gain is {gains[0]:.6g}")
            gains = gains * scale
        if gains.size and gains[0] >= gth:
            raise AtThresholdError(
                f"pump drives g0 = {gains[0]:.6g} at/above threshold {gth:.6g}")
        return gains, scale

    @cached_property
    def g0(self) -> float:
        if self.cfg.pump_ratio is not None:
            return self.cfg.pump_ratio * self.threshold
        return float(self.scaled(self.basis.gains)[0][0])

    @cached_property
    def kernel(self):
        cfg = self.cfg
        return build_kernel(cfg.grid.n_points, cfg.pump, cfg.crystal)

    @cached_property
    def values(self) -> np.ndarray:
        from .supermodes import takagi_values

        body = self._record(
            SPECTRUM_FILE, 8 * self.cfg.grid.n_points,
            lambda: takagi_values(self.kernel).astype("<f8").tobytes())
        return np.frombuffer(body, "<f8")

    @property
    def n_kept(self) -> int:
        from .supermodes import kept_count

        return kept_count(self.values, self.cfg.run["gain_cutoff"])

    @cached_property
    def basis(self):
        from .supermodes import SupermodeBasis, schmidt_decompose

        cfg = self.cfg
        n = cfg.grid.n_points
        # a zero kernel keeps no mode; takagi still gives it a basis
        k = min(max(1, cfg.run["n_modes_dump"]), n)

        def compute():
            basis = schmidt_decompose(self.kernel, cfg.run["gain_cutoff"],
                                      n_modes=k)
            return (basis.gains.astype("<f8").tobytes()
                    + basis.modes_freq.astype("<c16").tobytes())

        body = self._record(BASIS_FILE, 8 * k + 16 * n * k, compute)
        return SupermodeBasis.from_modes(
            np.frombuffer(body, "<f8", k),
            np.frombuffer(body, "<c16", offset=8 * k).reshape(n, k),
            cfg.grid, cfg.run["gain_cutoff"])


def run_supermodes(run: _Run) -> None:
    """gain spectrum and supermode dumps"""
    cfg = run.cfg
    values, n_kept = run.values, run.n_kept
    gains, scale = run.scaled(values)
    # a tiny coupling scales by up to ~1e300: the energy prints as inf
    with np.errstate(over="ignore"):
        energy = cfg.pump.pulse_energy * scale**2
    n_dump = min(n_kept, cfg.run["n_modes_dump"])
    if n_dump:
        modes = run.basis.modes_freq
        if np.abs(run.basis.gains[:n_dump] - values[:n_dump]).max() \
                > 1e-12 * values[0]:
            # Lanczos gains that stray from eigvalsh's: the dump takes the
            # full decomposition, and the record keeps the Lanczos basis
            from .supermodes import schmidt_decompose

            modes = schmidt_decompose(run.kernel,
                                      cfg.run["gain_cutoff"]).modes_freq
    meta = _metadata(cfg, threshold_gain=_FLOAT_FMT % run.threshold,
                     effective_pulse_energy=_FLOAT_FMT % energy, n_kept=n_kept)
    run.write("gains.csv", ["index", "gain"],
              [[np.arange(gains.size), gains]], meta)
    omegas = cfg.grid.omegas
    for n in range(n_dump):
        mode = modes[:, n]
        run.write(f"mode_{n:03d}.csv", ["omega", "re_psi", "im_psi"],
                  [[omegas, mode.real, mode.imag]], meta)
    if cfg.run["dump_kernel"]:
        matrix = run.kernel.matrix
        n_points = cfg.grid.n_points
        kmeta = dict(meta, shape=f"{n_points}x{n_points}", order="row-major")
        # (re, im) lines of a few matrix rows at a time, so no column or
        # value list of the whole kernel is built
        step = max(1, _CHUNK_ROWS // matrix.shape[1])
        blocks = ([rows.real.ravel(), rows.imag.ravel()]
                  for rows in np.split(matrix, range(step, len(matrix), step)))
        run.write("kernel.csv", ["re", "im"], blocks, kmeta)


def run_squeezing(run: _Run) -> None:
    """squeezing / EPR spectra versus comb shift theta"""
    cfg = run.cfg
    gains, _ = run.scaled(run.values)
    theta_max = cfg.run["theta_max"]
    thetas = np.linspace(-theta_max, theta_max, cfg.run["theta_points"])
    spectrum = squeezing_spectrum(gains[:run.n_kept], cfg.cavity, thetas)
    blocks = [[thetas, mode, spectrum.var_x[mode], spectrum.var_p[mode],
               spectrum.epr[mode]] for mode in range(len(spectrum.var_x))]
    meta = _metadata(cfg, threshold_gain=_FLOAT_FMT % run.threshold)
    run.write("squeezing.csv",
              ["theta", "mode", "var_x", "var_p", "epr_variance"], blocks, meta)


def run_pulses(run: _Run) -> None:
    """pulse covariance, minimum variance, Duan sweeps"""
    from .pulses import covariance, duan_sum, min_variance_curve

    cfg, g0 = run.cfg, run.g0
    r = resonant_r(cfg.cavity)
    n_max = cfg.run["N_max"]
    meta = _metadata(cfg, threshold_gain=_FLOAT_FMT % run.threshold)
    ns = np.arange(1, n_max + 1)
    sigma2, theta = min_variance_curve(g0, r, ns)
    run.write("sigma2.csv",
              ["N", "g", "r", "sigma2_abs", "sigma2_normalized", "theta_sol"],
              [[ns, g0, cfg.cavity.r, sigma2, sigma2 / 0.5, theta]], meta)
    seps = np.arange(1, min(n_max, 12))
    if seps.size:
        run.write("duan.csv", ["separation", "duan_sum"],
                  [[seps, duan_sum(g0, r, seps)]], meta)
    if cfg.run["dump_matrices"]:
        cov = covariance(g0, r, min(n_max, 64))
        for name, mat in (("v_plus", cov.v_plus), ("v_minus", cov.v_minus)):
            header = [f"c{j}" for j in range(cov.n_pulses)]
            run.write(f"{name}.csv", header, [list(mat.T)], meta)


def run_metrology(run: _Run) -> None:
    """time-delay improvement curves and optimal probe"""
    from .metrology import improvement_curve, optimal_probe

    cfg = run.cfg
    # the bound reads g0 and psi0 alone: column 0 of the run basis
    basis, g0 = run.basis, run.g0
    if cfg.pump_ratio is not None:
        # refuses, as supermodes and squeezing do, a top gain that no finite
        # factor takes to the pump_ratio
        run.scaled(basis.gains)
    r = resonant_r(cfg.cavity)
    if "ratios" in cfg.run:
        ratios = cfg.run["ratios"]
    elif cfg.pump_ratio is not None:
        ratios = [cfg.pump_ratio]
    else:
        ratios = [g0 / run.threshold]
    curve = improvement_curve(cfg.cavity, ratios, cfg.run["N_max"])
    probe = optimal_probe(basis, cfg.crystal.omega0, r,
                          cfg.run["probe_pulses"], cfg.run["n_bar0"],
                          gain0=g0)
    meta = _metadata(cfg, threshold_gain=_FLOAT_FMT % run.threshold)
    blocks = [[ratio, curve.n_values, sigma2, improvement, asymptote]
              for ratio, sigma2, improvement, asymptote in zip(
                  curve.ratios, curve.sigma2, curve.improvement,
                  curve.asymptote)]
    run.write("metrology.csv", ["ratio", "N", "sigma2", "improvement",
                                "asymptote"], blocks, meta)
    summary = {
        "spopo_version": __version__,
        "config_hash": cfg.config_hash,
        "threshold_gain": run.threshold,
        "ratios": list(map(float, curve.ratios)),
        "asymptote": list(map(float, curve.asymptote)),
        "min_pulses_to_asymptote": list(map(int, curve.min_pulses_to_asymptote)),
    }
    run.write("summary.json",
              json.dumps(summary, indent=2, sort_keys=True) + "\n")
    times = (np.arange(len(probe.alpha_prime))[:, None]
             * basis.grid.rep_period + basis.time_grid[None, :]).ravel()
    pmeta = _metadata(cfg, amplitude=_FLOAT_FMT % probe.amplitude,
                      omega_eff_sq=_FLOAT_FMT % probe.omega_eff_sq)
    run.write("probe.csv", ["t", "re", "im"],
              [[times, probe.envelope.real, probe.envelope.imag]], pmeta)


_RUNNERS = {
    "supermodes": run_supermodes,
    "squeezing": run_squeezing,
    "pulses": run_pulses,
    "metrology": run_metrology,
}


def build_parser() -> argparse.ArgumentParser:
    """One parser: a command (a key of _RUNNERS, whose docstring line is
    its help) and the --config and --out that every command takes."""
    parser = argparse.ArgumentParser(
        prog="spopo",
        description="Below-threshold SPOPO quantum properties: supermodes, "
                    "squeezing\nspectra, pulse covariances, time-delay bounds.",
        epilog="commands:\n" + "".join(
            f"  {name:<12}{runner.__doc__}\n"
            for name, runner in _RUNNERS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_RUNNERS, metavar="command",
                        help="one of the commands below")
    parser.add_argument("--config", required=True, help="scenario JSON path")
    parser.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = _Run(load_scenario(args.config), Path(args.out))
        _RUNNERS[args.command](run)
        written = run.store()
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
