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
from functools import lru_cache

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


# a record's LLI and signal-strength digits by 10 * LLI + digit
_FLAGS = np.array([f"{lli}{digit}" for lli in (0, 1) for digit in range(10)],
                  dtype=object)
_RECORD = "%s%14.3f%s%14.3f%s%14.3f%s\n"


def _records(epoch) -> list[str]:
    """An epoch's record lines. Each value carries the record's LLI digit,
    1 where lock is 0 (a slip), and its signal-strength digit: SNR in
    6 dB-Hz bins rounded half to even (as `round`), clipped to 1..9."""
    keys, code, phase, doppler = (getattr(epoch, name).tolist() for name in
                                  ("sats", "code", "phase", "doppler"))
    scaled = epoch.snr / 6.0
    finite = np.isfinite(scaled)
    # a record's digit comes before its name: a bad key raises only ahead
    # of the first non-finite SNR, which raises as `round` does
    named = len(keys) if finite.all() else int(finite.argmin())
    names = list(map(SatelliteId.name_of, keys[:named]))
    if named < len(keys):
        round(float(scaled[named]))
    flags = _FLAGS[10 * (epoch.lock == 0)
                   + np.clip(np.rint(scaled), 1, 9).astype(int)].tolist()
    return list(map(_RECORD.__mod__, zip(names, code, flags, phase, flags,
                                         doppler, flags)))


def write_rinex_obs(header: RinexHeader, epochs, stream) -> None:
    """Emit a RINEX 3.04 observation file; `parse_rinex_obs` inverts it
    at the format's 3-decimal precision. Each epoch's lines go out in one
    `writelines`."""
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
        stream.writelines([f"> {cal.year:4d} {cal.month:02d} {cal.day:02d} "
                           f"{cal.hour:02d} {cal.minute:02d} {seconds:10.7f}"
                           f"  0{len(epoch):3d}\n", *_records(epoch)])


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
    except (ValueError, OverflowError) as exc:  # OverflowError: inf seconds
        raise MalformedEpoch(f"line {number}: {exc}") from exc
    if count < 0:
        raise MalformedEpoch(f"line {number}: negative satellite count")
    return GpsTime.from_calendar(moment), count


# an LLI or signal-strength code point's digit, 0 for a space or none,
# 10 where `int` must read it (128: any point above 127)
_DIGIT = np.full(129, 10, dtype=np.uint32)
_DIGIT[[0, 32]], _DIGIT[48:58] = 0, np.arange(10)
_KEPT = np.array([[1], [2], [3]])      # the kinds of C, L and D
_SYSTEMS = {system.value for system in Constellation}


@lru_cache(maxsize=1024)
def _satellite(text: str, codes: tuple, channels: tuple):
    """(key, wavelength, the last code of C, L and D or -1, then each
    code's kind: 1-3 for C, L, D, else 4) of a record's ID under a header's
    codes and GLONASS channels, as items; None to skip; a bad ID's message."""
    if text[:1] not in _SYSTEMS:
        return None
    try:
        sat = SatelliteId.parse(text)
    except (ValueError, KeyError, IndexError):
        return "bad satellite id"
    codes = dict(codes).get(sat.constellation)
    if not codes:
        return None
    kinds = ["CLD".find(code[0]) + 1 or 4 for code in codes]
    last = {kind: k for k, kind in enumerate(kinds)}
    return (sat.key, carrier_wavelength(sat, dict(channels).get(sat.prn, 0)),
            *(last.get(kind, -1) for kind in (1, 2, 3)), *kinds)


def parse_rinex_obs(stream) -> tuple[RinexHeader, list[Epoch]]:
    """Parse a RINEX 3.04 observation stream.

    Returns the header and every epoch that parsed completely.  A
    malformed epoch is dropped with a warning and parsing resumes at the
    next '>' record, so one corrupt record never loses a whole file.
    A satellite's lock count advances over each complete record before
    the first bad one of its epoch and restarts where LLI bit 0 is set.
    """
    text = stream.read()
    lines = text.splitlines()
    header, body_start = _parse_header(lines)
    marks = [k for k in range(body_start, len(lines))
             if lines[k].startswith(">")]
    # numpy strings end at a NUL; \x01 fails each value and digit as a
    # NUL does, and a message quotes the line itself
    cells = (text.replace("\x00", "\x01").splitlines() if "\x00" in text
             else lines)
    # per epoch: its time, record lines read and the error dropping it
    times, reads, failures, records = [], [], [], []
    for start, end in zip(marks, marks[1:] + [len(lines)]):
        try:
            time, count = _parse_epoch_line(lines[start], start + 1)
            failure = None if count < end - start else MalformedEpoch(
                f"line {end}: epoch at line {start + 1} lists {count} "
                f"satellites but has {end - start - 1}")
        except (MalformedEpoch, ValueError) as exc:
            time, count, failure = None, 0, exc
        times.append(time)
        reads.append(min(count, end - start - 1))
        failures.append(failure)
        records += cells[start + 1:start + 1 + reads[-1]]
    row_epoch = np.arange(len(reads)).repeat(reads)

    # per record: its ID, then per code a 14-character value and the
    # code points of its LLI and signal-strength characters
    slots = max([1, *map(len, header.observation_codes.values())])
    table = np.array(records, dtype=f"U{3 + 16 * slots}").view([
        ("sat", "U3"),
        ("obs", [("value", "U14"), ("flags", np.uint32, 2)], slots)])
    ids = {}
    sat_of = np.array([ids.setdefault(text, len(ids))
                       for text in table["sat"].tolist()], dtype=int)
    system = (tuple(header.observation_codes.items()),
              tuple(header.glonass_channels.items()))
    known = [_satellite(text.replace(" ", "0"), *system) for text in ids]
    # per record: key, wavelength, the last code of C, L and D, and the
    # kind of each code: 0 for none, -1 for all codes of a bad ID
    info = np.array([entry + (0,) * (slots + 5 - len(entry))
                     if type(entry) is tuple else (0, 0, -1, -1, -1)
                     + (-1 if entry else 0,) * slots for entry in known],
                    dtype=float).reshape(-1, 5 + slots)[sat_of]
    kind, last = info[:, 5:], info[:, 2:5].astype(int)
    value, flags = table["obs"]["value"], table["obs"]["flags"]
    read = kind > 0
    number = np.zeros(read.shape)
    # record -> 3 * code + 0, 1 or 2 for its first bad value, LLI or
    # signal strength; -1 for a bad ID
    bad = dict.fromkeys((kind[:, 0] < 0).nonzero()[0].tolist(), -1)
    try:
        number[read] = list(map(float, map(str.strip,
                                            value[read].tolist())))
    except ValueError:
        # one by one: a blank value is not read, a bad one raises
        numbers, kept = [], []
        for r, slot, cell in zip(*read.nonzero(), value[read].tolist()):
            kept.append(bool(cell.strip()))
            try:
                numbers.append(float(cell.strip() or 0))
            except ValueError:
                numbers.append(0.0)
                bad.setdefault(r, 3 * slot)
        number[read] = numbers
        if not all(kept):
            # a blank value: the last of its kind may be an earlier code
            read[read] = kept
            last = np.where(read[:, None] & (kind[:, None] == _KEPT),
                            np.arange(slots), -1).max(axis=2)
    digits = _DIGIT.take(flags, mode="clip")
    odd = digits == 10
    for r, slot, part in zip(*(odd & ((kind == 2) & read)[..., None]
                               ).nonzero() if odd.any() else ()):
        flag = chr(flags[r, slot, part]).strip()
        try:
            digits[r, slot, part] = int(flag) if flag else 0
        except ValueError:
            position = 3 * slot + 1 + part
            bad[r] = min(bad.get(r, position), position)

    # an epoch's first bad record drops it, and the records from it on
    # are not read
    counted = last.min(axis=1) >= 0
    for e, r in {row_epoch[r]: r for r in sorted(bad, reverse=True)}.items():
        counted[r:row_epoch.searchsorted(e, "right")] = False
        k = marks[e] + 1 + r - row_epoch.searchsorted(e)
        slot, part = divmod(bad[r], 3)
        chunk = lines[k][3 + 16 * slot:19 + 16 * slot]
        try:        # what reading the record on line k + 1 raises
            if bad[r] < 0 or part == 0:
                raise MalformedEpoch("bad satellite id" if bad[r] < 0 else
                                     f"bad field {chunk[:14].strip()!r}",
                                     k + 1)
            int(chunk[13 + part])
        except (MalformedEpoch, ValueError) as exc:
            failures[e] = exc
    counted = counted.nonzero()[0]
    key = info[counted, 0].astype(int)
    locks, lock = {}, []
    for sat, flag in zip(key.tolist(),
                         digits[counted, last[counted, 1], 0].tolist()):
        locks[sat] = 0 if flag & 1 else locks.get(sat, -1) + 1
        lock.append(locks[sat])

    # the records by epoch, then satellite
    order = np.lexsort((key, row_epoch[counted]))
    rows = counted[order]
    epoch_of, sats = row_epoch[rows], key[order]
    lock = np.array(lock, dtype=int)[order]
    code, phase, doppler = number[rows[:, None], last[rows]].T.copy()
    wavelength = info[rows, 1]
    snr = digits[rows, last[rows, 1], 1] * 6.0
    for e in epoch_of[1:][(epoch_of[1:] == epoch_of[:-1])
                          & (sats[1:] == sats[:-1])].tolist():
        failures[e] = failures[e] or ValueError("duplicate satellite in "
                                                "epoch")
    bounds = epoch_of.searchsorted(np.arange(len(reads) + 1)).tolist()
    columns = (sats, code, phase, doppler, wavelength, lock, snr)
    epochs: list[Epoch] = []
    for e, (time, failure) in enumerate(zip(times, failures)):
        if failure is None:
            epochs.append(Epoch(time, *(column[bounds[e]:bounds[e + 1]]
                                        for column in columns)))
        else:
            warnings.warn(f"dropping epoch at line {marks[e] + 1}: "
                          f"{failure}")
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
