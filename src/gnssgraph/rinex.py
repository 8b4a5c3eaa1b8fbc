"""RINEX 3.04 observation file reading and writing.

Scope is deliberately narrow: observation files only (no navigation
messages, no RINEX 2, no Hatanaka compression), one code per
constellation on the L1/E1/B1/G1 band.  Satellite states are carried in
a separate sidecar file (see `fileio`).  GLONASS wavelengths come from
the GLONASS SLOT / FRQ # header table.

The parser is defensive: any byte stream yields either a parsed result
or a structured `MalformedHeader` / `MalformedEpoch` error carrying the
offending line number.  Epochs that fail to parse are dropped with a
warning and parsing continues.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .constants import (CLIGHT, FREQ_BDS_B1, FREQ_GAL_E1, FREQ_GLO_G1_BASE,
                        FREQ_GLO_G1_STEP, FREQ_GPS_L1)
from .errors import MalformedEpoch, MalformedHeader
from .gnsstime import GpsTime
from .types import Constellation, Epoch, SatelliteId

RINEX_VERSION = 3.04
# single L1-band code triple per constellation
OBS_CODES = {
    Constellation.GPS: ("C1C", "L1C", "D1C"),
    Constellation.GLO: ("C1C", "L1C", "D1C"),
    Constellation.GAL: ("C1C", "L1C", "D1C"),
    Constellation.BDS: ("C2I", "L2I", "D2I"),
}
_NOMINAL_FREQ = {
    Constellation.GPS: FREQ_GPS_L1,
    Constellation.GAL: FREQ_GAL_E1,
    Constellation.BDS: FREQ_BDS_B1,
}


def carrier_wavelength(sat: SatelliteId, channel: int = 0) -> float:
    """Wavelength [m] of the satellite's carrier of `OBS_CODES`; a GLONASS
    satellite's by its FDMA frequency `channel`."""
    if sat.constellation is Constellation.GLO:
        return CLIGHT / (FREQ_GLO_G1_BASE + channel * FREQ_GLO_G1_STEP)
    return CLIGHT / _NOMINAL_FREQ[sat.constellation]


def glonass_channel(prn: int) -> int:
    """Frequency channel assignment for simulated GLONASS satellites."""
    return ((prn - 1) % 14) - 7


@dataclass
class RinexHeader:
    """The subset of RINEX observation header records the library uses."""

    version: float = RINEX_VERSION
    marker_name: str = "SIM"
    approx_position: np.ndarray | None = None
    observation_codes: dict[Constellation, tuple[str, ...]] = field(
        default_factory=lambda: dict(OBS_CODES))
    interval: float | None = None
    glonass_channels: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.version < 3.0:
            raise MalformedHeader(f"unsupported version {self.version}")


def _header_line(content: str, label: str) -> str:
    return f"{content:<60s}{label}\n"


def _snr_digit(snr: float) -> int:
    # RINEX signal-strength indicator: 1 (worst) .. 9 (best), 6 dB-Hz bins
    return int(min(max(round(snr / 6.0), 1), 9))


def write_rinex_obs(header: RinexHeader, epochs, stream) -> None:
    """Emit a RINEX 3.04 observation file; `parse_rinex_obs` inverts it
    at the format's 3-decimal precision."""
    stream.write(_header_line(
        f"{header.version:9.2f}{'':11s}{'OBSERVATION DATA':<20s}{'M':<20s}",
        "RINEX VERSION / TYPE"))
    stream.write(_header_line(f"{'gnssgraph':<20s}{'':40s}",
                              "PGM / RUN BY / DATE"))
    stream.write(_header_line(f"{header.marker_name:<60s}", "MARKER NAME"))
    if header.approx_position is not None:
        x, y, z = header.approx_position
        stream.write(_header_line(f"{x:14.4f}{y:14.4f}{z:14.4f}",
                                  "APPROX POSITION XYZ"))
    for const, codes in header.observation_codes.items():
        body = f"{const.value}  {len(codes):4d}"
        body += "".join(f" {code:>3s}" for code in codes)
        stream.write(_header_line(body, "SYS / # / OBS TYPES"))
    if header.interval is not None:
        stream.write(_header_line(f"{header.interval:10.3f}", "INTERVAL"))
    if header.glonass_channels:
        items = sorted(header.glonass_channels.items())
        body = f"{len(items):3d} "
        per_line = 8
        for i in range(0, len(items), per_line):
            chunk = items[i:i + per_line]
            line = body if i == 0 else "    "
            line += "".join(f"R{prn:02d} {ch:2d} " for prn, ch in chunk)
            stream.write(_header_line(line.rstrip(), "GLONASS SLOT / FRQ #"))
    stream.write(_header_line("", "END OF HEADER"))

    for epoch in epochs:
        cal = epoch.time.to_calendar()
        seconds = cal.second + cal.microsecond * 1e-6
        stream.write(f"> {cal.year:4d} {cal.month:02d} {cal.day:02d} "
                     f"{cal.hour:02d} {cal.minute:02d} {seconds:10.7f}"
                     f"  0{len(epoch):3d}\n")
        for key, code, phase, doppler, lock, snr in zip(*(
                getattr(epoch, name).tolist() for name in
                ("sats", "code", "phase", "doppler", "lock", "snr"))):
            flags = f"{1 if lock == 0 else 0:1d}{_snr_digit(snr):1d}"
            stream.write(f"{SatelliteId.from_key(key)}{code:14.3f}{flags}"
                         f"{phase:14.3f}{flags}{doppler:14.3f}{flags}\n")


def _parse_header(lines) -> tuple[RinexHeader, int]:
    """Consume header records; return (header, index of first body line)."""
    header = RinexHeader(observation_codes={})
    pending_codes: tuple[Constellation, int] | None = None
    for number, raw in enumerate(lines, start=1):
        label = raw[60:80].strip()
        body = raw[:60]
        try:
            if label == "RINEX VERSION / TYPE":
                header.version = float(body[:9])
                if header.version < 3.0:
                    raise MalformedHeader(
                        f"line {number}: unsupported version {header.version}")
                if body[20:21] not in ("O", " "):
                    raise MalformedHeader(
                        f"line {number}: not an observation file")
            elif label == "MARKER NAME":
                header.marker_name = body.strip()
            elif label == "APPROX POSITION XYZ":
                header.approx_position = np.array(
                    [float(body[k:k + 14]) for k in (0, 14, 28)])
            elif label == "SYS / # / OBS TYPES":
                if body[0] != " ":
                    const = Constellation(body[0])
                    count = int(body[3:7])
                    header.observation_codes[const] = ()
                    pending_codes = (const, count)
                if pending_codes is None:
                    raise MalformedHeader(
                        f"line {number}: continuation without system line")
                const, count = pending_codes
                codes = header.observation_codes[const] + tuple(
                    body[7:].split())
                header.observation_codes[const] = codes[:count]
            elif label == "INTERVAL":
                header.interval = float(body[:10])
            elif label == "GLONASS SLOT / FRQ #":
                for token in body[3:].replace("R", " R").split():
                    if token.startswith("R"):
                        prn = int(token[1:])
                    else:
                        header.glonass_channels[prn] = int(token)
            elif label == "END OF HEADER":
                return header, number
        except MalformedHeader:
            raise
        except (ValueError, KeyError, UnboundLocalError) as exc:
            raise MalformedHeader(f"line {number}: {exc}") from exc
    raise MalformedHeader(f"line {len(lines)}: missing END OF HEADER")


def _parse_epoch_line(line: str, number: int) -> tuple[GpsTime, int]:
    if len(line) < 35:
        raise MalformedEpoch(f"line {number}: truncated epoch record")
    try:
        year, month, day = int(line[2:6]), int(line[7:9]), int(line[10:12])
        hour, minute = int(line[13:15]), int(line[16:18])
        seconds = float(line[19:29])
        count = int(line[32:35])
        whole = int(seconds)
        moment = datetime(year, month, day, hour, minute, whole,
                          round((seconds - whole) * 1e6))
    except ValueError as exc:
        raise MalformedEpoch(f"line {number}: {exc}") from exc
    if count < 0:
        raise MalformedEpoch(f"line {number}: negative satellite count")
    return GpsTime.from_calendar(moment), count


def _satellite(text: str, number: int, header: RinexHeader):
    """(key, code kinds, wavelength) of a record's 3-character ID, or None
    for a system that is unsupported or has no codes in the header."""
    try:
        Constellation(text[:1])
    except ValueError:
        return None
    try:
        sat = SatelliteId.parse(text)
    except (ValueError, KeyError, IndexError) as exc:
        raise MalformedEpoch(f"line {number}: bad satellite id") from exc
    codes = header.observation_codes.get(sat.constellation)
    if not codes:
        return None
    return (sat.key, tuple(code[0] for code in codes),
            carrier_wavelength(sat, header.glonass_channels.get(sat.prn, 0)))


def _parse_observation(line: str, number: int, header: RinexHeader,
                       locks: dict, sats: dict) -> tuple | None:
    """(key, code, phase, Doppler, wavelength, lock, SNR) of a record, or
    None for a record to skip."""
    text = line[:3].replace(" ", "0")
    # each ID parsed once; a bad one is never kept, so it raises each time
    try:
        sat = sats[text]
    except KeyError:
        sat = sats[text] = _satellite(text, number, header)
    if sat is None:
        return None
    key, kinds, wavelength = sat
    values: dict[str, float] = {}
    lli = snr_digit = 0
    for slot, kind in enumerate(kinds):
        chunk = line[3 + 16 * slot:3 + 16 * slot + 16]
        text = chunk[:14].strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError as exc:
            raise MalformedEpoch(f"line {number}: bad field {text!r}") from exc
        values[kind] = value
        if kind == "L":
            flag = chunk[14:15].strip()
            lli = int(flag) if flag else 0
            digit = chunk[15:16].strip()
            snr_digit = int(digit) if digit else 0
    if "C" not in values or "L" not in values or "D" not in values:
        return None
    lock = 0 if lli & 1 else locks.get(key, -1) + 1
    locks[key] = lock
    return (key, values["C"], values["L"], values["D"], wavelength, lock,
            snr_digit * 6.0)


def _epoch(time: GpsTime, records: list) -> Epoch:
    """The epoch of its `_parse_observation` tuples, sorted by satellite;
    ValueError if a satellite has two."""
    table = np.array(records, dtype=float).reshape(-1, 7)
    sats, code, phase, doppler, wavelength, lock, snr = table[
        np.argsort(table[:, 0], kind="stable")].T.copy()
    if (np.diff(sats) == 0).any():
        raise ValueError("duplicate satellite in epoch")
    return Epoch(time, sats.astype(int), code, phase, doppler, wavelength,
                 lock.astype(int), snr)


def parse_rinex_obs(stream) -> tuple[RinexHeader, list[Epoch]]:
    """Parse a RINEX 3.04 observation stream.

    Returns the header and every epoch that parsed completely.  A
    malformed epoch is dropped with a warning and parsing resumes at the
    next '>' record, so one corrupt record never loses a whole file.
    """
    lines = stream.read().splitlines()
    header, body_start = _parse_header(lines)

    epochs: list[Epoch] = []
    locks: dict[int, int] = {}       # satellite key -> last lock count
    sats: dict[str, tuple | None] = {}
    k = body_start
    while k < len(lines):
        line = lines[k]
        if not line.startswith(">"):
            k += 1
            continue
        start = k
        try:
            time, count = _parse_epoch_line(line, k + 1)
            records = []
            for slot in range(count):
                k += 1
                if k >= len(lines) or lines[k].startswith(">"):
                    raise MalformedEpoch(
                        f"line {k}: epoch at line {start + 1} lists {count} "
                        f"satellites but has {slot}")
                record = _parse_observation(lines[k], k + 1, header, locks,
                                            sats)
                if record is not None:
                    records.append(record)
            epochs.append(_epoch(time, records))
        except (MalformedEpoch, ValueError) as exc:
            warnings.warn(f"dropping epoch at line {start + 1}: {exc}")
            # resynchronize on the next epoch record
            k = start
            while k + 1 < len(lines) and not lines[k + 1].startswith(">"):
                k += 1
        k += 1
    return header, epochs


def header_for_scenario(config, reference_position=None) -> RinexHeader:
    """Header matching a simulator scenario (codes, interval, GLONASS
    channel table)."""
    codes = {c: OBS_CODES[c] for c in sorted(config.counts,
                                             key=lambda c: c.value)}
    channels = {}
    if Constellation.GLO in config.counts:
        channels = {prn: glonass_channel(prn)
                    for prn in range(1, config.counts[Constellation.GLO] + 1)}
    return RinexHeader(
        marker_name="SIMULATED",
        approx_position=(None if reference_position is None
                         else np.asarray(reference_position, float)),
        observation_codes=codes,
        interval=1.0 / config.rate,
        glonass_channels=channels)
