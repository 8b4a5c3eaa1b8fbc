"""The RINEX observation and satellite-state sidecar writers as loops
over rows, one record at a time: the reference that `write_rinex_obs`
and `write_sat_states_csv` must equal byte for byte, errors alike."""

import numpy as np

from gnssgraph.fileio import SAT_STATE_COLUMNS
from gnssgraph.rinex import _header_line
from gnssgraph.types import SatelliteId


def _snr_digit(snr):
    # RINEX signal-strength indicator: 1 (worst) .. 9 (best), 6 dB-Hz bins
    return int(min(max(round(snr / 6.0), 1), 9))


def write_rinex_reference(header, epochs, stream):
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


_SAT_STATE_ROW = "%s,%s" + ",%.6f" * 3 + ",%.9f" * 3 + ",%.15e" * 2 + "\r\n"


def write_sat_states_reference(epochs, sat_states, stream):
    stream.write(",".join(SAT_STATE_COLUMNS) + "\r\n")
    for epoch, states in zip(epochs, sat_states):
        known = ~np.isnan(states).any(axis=1)
        tow = f"{epoch.time.tow:.3f}"
        stream.writelines(
            _SAT_STATE_ROW % (tow, SatelliteId.from_key(key), *row)
            for key, row in zip(epoch.sats[known].tolist(),
                                states[known].tolist()))
