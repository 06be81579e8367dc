"""The run, grid, check and ppm-demo harness; write_csv writes its tables."""


def write_csv(path, header, rows):
    """Write header and rows, one cell per header name, to path as UTF-8 with
    '\\n' line ends.  A cell is "" for None, the shortest round-trip repr of a
    float (numpy's float64 included), and str() of anything else with ','
    replaced by ';'."""
    cells = ["" if v is None else repr(float(v)) if isinstance(v, float)
             else str(v).replace(",", ";") for row in rows for v in row]
    # One flat pass formats every cell; zip regroups them into rows, in C.
    lines = map(",".join, [header, *zip(*[iter(cells)] * len(header), strict=True)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
