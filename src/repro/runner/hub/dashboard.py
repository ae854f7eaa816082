"""Stdlib-only HTML dashboard for the Sweep Hub.

A thin ``http.server`` view over the same data the CLIs print: live hub
state (queue, fleet, leases) from :meth:`Broker.snapshot` or a remote
``status`` query, run history from :class:`ResultsDB`, and the bench
trajectory from ``BENCH_<date>.json`` report files.  Everything renders as
plain HTML tables -- no JavaScript, no external assets, no dependencies
beyond the standard library -- because the dashboard's job is browsing,
not charting; the bench harness already owns regression math.

The server is read-only by construction: every route answers ``GET`` with
data assembled at request time, so a browser refresh is the whole
"live update" story.
"""

from __future__ import annotations

import html
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro.runner.distributed.protocol import close_in_forked_children
from repro.runner.hub.resultsdb import ResultsDB

__all__ = ["DashboardServer"]

_STYLE = """
body { font-family: monospace; margin: 1.5em; background: #fdfdfd; }
h1, h2 { font-size: 1.1em; }
table { border-collapse: collapse; margin: 0.5em 0 1.5em; }
th, td { border: 1px solid #bbb; padding: 0.25em 0.6em; text-align: left; }
th { background: #eee; }
a { color: #025; }
pre { background: #f2f2f2; padding: 0.8em; overflow-x: auto; }
.nav a { margin-right: 1em; }
"""


def _esc(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3f}"
    return html.escape(str(value))


def _html_table(rows: Sequence[Dict[str, Any]], columns: Sequence[str]) -> str:
    if not rows:
        return "<p>(none)</p>"
    head = "".join(f"<th>{html.escape(col)}</th>" for col in columns)
    body = "".join(
        "<tr>" + "".join(f"<td>{cell}</td>" for cell in row_cells) + "</tr>"
        for row_cells in (
            [_esc(row.get(col)) for col in columns] for row in rows
        )
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def _page(title: str, body: str) -> bytes:
    nav = (
        '<p class="nav"><a href="/">hub</a><a href="/runs">runs</a>'
        '<a href="/bench">bench</a></p>'
    )
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title><style>{_STYLE}</style></head>"
        f"<body><h1>{html.escape(title)}</h1>{nav}{body}</body></html>"
    ).encode("utf-8")


class _Handler(BaseHTTPRequestHandler):
    server_version = "SweepHubDash/1"

    def log_message(self, *args: Any) -> None:  # noqa: D102 - silence stderr
        pass

    # -------------------------------------------------------------- #
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        dash: "DashboardServer" = self.server.dashboard  # type: ignore[attr-defined]
        parsed = urlparse(self.path)
        query = {k: v[0] for k, v in parse_qs(parsed.query).items()}
        try:
            route = {
                "/": dash.page_index,
                "/runs": dash.page_runs,
                "/run": dash.page_run,
                "/sweep": dash.page_sweep,
                "/bench": dash.page_bench,
            }.get(parsed.path)
            if route is None:
                self._respond(404, _page("not found", f"<p>no route {_esc(parsed.path)}</p>"))
                return
            self._respond(200, route(query))
        except KeyError as exc:
            self._respond(404, _page("not found", f"<p>{_esc(exc)}</p>"))
        except Exception as exc:  # noqa: BLE001 - a dashboard must not die
            self._respond(500, _page("error", f"<pre>{_esc(exc)}</pre>"))

    def _respond(self, code: int, payload: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


class DashboardServer:
    """Serve the hub/run-history dashboard on a background thread.

    Parameters
    ----------
    artifact_dir:
        Artifact root for run history (``None``: the runs/sweeps pages
        show an explanatory empty state).
    hub:
        An in-process :class:`~repro.runner.hub.service.SweepHub`, when the
        dashboard runs inside ``repro hub serve`` (preferred: snapshots are
        lock-consistent and free).
    hub_address:
        A remote hub's ``(host, port)`` to ``status``-query per request
        instead (for a standalone ``repro hub dash``).
    bench_dir:
        Directory holding ``BENCH_<date>.json`` trajectory reports
        (``None`` hides the bench page's data).
    host / port:
        Bind address; port ``0`` picks a free one (see :attr:`address`).
    """

    def __init__(
        self,
        *,
        artifact_dir: Optional[Union[str, Path]] = None,
        hub: Optional[Any] = None,
        hub_address: Optional[Tuple[str, int]] = None,
        bench_dir: Optional[Union[str, Path]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.db = ResultsDB(artifact_dir) if artifact_dir is not None else None
        self.hub = hub
        self.hub_address = hub_address
        self.bench_dir = Path(bench_dir) if bench_dir is not None else None
        self._bind = (host, port)
        self.address: Optional[Tuple[str, int]] = None
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -------------------------------------------------------------- #
    def start(self) -> Tuple[str, int]:
        self._httpd = ThreadingHTTPServer(self._bind, _Handler)
        self._httpd.daemon_threads = True
        # A hub's forked pool workers must not hold the dashboard port.
        close_in_forked_children(self._httpd.socket)
        self._httpd.dashboard = self  # type: ignore[attr-defined]
        self.address = self._httpd.server_address[:2]
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self.address

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    # -------------------------------------------------------------- #
    def hub_status(self) -> Optional[Dict[str, Any]]:
        if self.hub is not None:
            return self.hub.snapshot()
        if self.hub_address is not None:
            from repro.runner.hub.client import query_hub_status

            try:
                return query_hub_status(self.hub_address, timeout_s=3.0)
            except Exception:  # noqa: BLE001 - hub may be down; show that
                return None
        return None

    # -------------------------------------------------------------- #
    # Pages
    # -------------------------------------------------------------- #
    def page_index(self, query: Dict[str, str]) -> bytes:
        del query
        parts: List[str] = []
        status = self.hub_status()
        if status is not None:
            address = status.get("address")
            where = f"{address[0]}:{address[1]}" if address else "in-process"
            parts.append(
                f"<h2>hub {_esc(where)} &middot; up {_esc(status.get('uptime_s'))}s"
                f" &middot; {_esc(status.get('active_leases'))} active lease(s)</h2>"
            )
            parts.append("<h2>sweeps</h2>")
            sweeps = [
                {**row, "sweep": f'<a href="/sweep?id={_esc(row.get("sweep"))}">'
                                 f'{_esc(row.get("sweep"))}</a>'}
                for row in status.get("sweeps", [])
            ]
            parts.append(_raw_table(
                sweeps,
                ["sweep", "name", "priority", "status", "done", "total",
                 "cached", "retries", "submitted", "finished", "error"],
            ))
            parts.append("<h2>workers</h2>")
            parts.append(_html_table(
                status.get("workers", []),
                ["worker", "host", "pid", "procs", "connected", "connections"],
            ))
            parts.append("<h2>stats</h2>")
            parts.append(f"<pre>{_esc(json.dumps(status.get('stats'), indent=2))}</pre>")
        else:
            parts.append("<p>no hub connected (run history below is static)</p>")
        if self.db is not None:
            parts.append("<h2>sweep journals</h2>")
            parts.append(_html_table(
                self.db.sweep_records(),
                ["sweep", "status", "done", "total", "cached", "resumed",
                 "events_dropped", "updated"],
            ))
        return _page("sweep hub", "".join(parts))

    def page_runs(self, query: Dict[str, str]) -> bytes:
        if self.db is None:
            return _page("runs", "<p>no artifact root configured</p>")
        records = self.db.run_records(
            task=query.get("task"), sweep=query.get("sweep"), with_result=False
        )
        rows = [
            {
                **record,
                "key": f'<a href="/run?key={_esc(record["task"])}/{_esc(record["key"])}">'
                       f'{_esc(record["key"][:16])}</a>',
                "sweeps": ", ".join(record["sweeps"]) or "-",
            }
            for record in records
        ]
        return _page(
            f"runs ({len(rows)})",
            _raw_table(rows, ["task", "key", "sweeps", "updated"]),
        )

    def page_run(self, query: Dict[str, str]) -> bytes:
        if self.db is None:
            return _page("run", "<p>no artifact root configured</p>")
        record = self.db.find(query.get("key", ""))
        body = (
            f"<h2>{_esc(record['task'])}/{_esc(record['key'])}</h2>"
            f"<h2>params</h2><pre>{_esc(json.dumps(record.get('params'), indent=2))}</pre>"
            f"<h2>result</h2><pre>{_esc(json.dumps(record.get('result'), indent=2))}</pre>"
            f"<h2>meta</h2><pre>{_esc(json.dumps(record.get('meta'), indent=2))}</pre>"
        )
        return _page("run", body)

    def page_sweep(self, query: Dict[str, str]) -> bytes:
        wanted = query.get("id", "")
        status = self.hub_status() or {}
        live = [row for row in status.get("sweeps", []) if row.get("sweep") == wanted]
        parts = []
        if live:
            parts.append("<h2>live</h2>")
            parts.append(f"<pre>{_esc(json.dumps(live[0], indent=2))}</pre>")
        if self.db is not None:
            records = [r for r in self.db.sweep_records() if r["sweep"] == wanted]
            for record in records:
                parts.append("<h2>journal</h2>")
                slim = {k: v for k, v in record.items() if k != "tasks"}
                parts.append(f"<pre>{_esc(json.dumps(slim, indent=2))}</pre>")
        if not parts:
            parts.append(f"<p>no sweep {_esc(wanted)} known</p>")
        return _page(f"sweep {wanted}", "".join(parts))

    def page_bench(self, query: Dict[str, str]) -> bytes:
        del query
        if self.bench_dir is None or not self.bench_dir.is_dir():
            return _page("bench", "<p>no bench directory configured</p>")
        rows: List[Dict[str, Any]] = []
        for path in sorted(self.bench_dir.glob("BENCH_*.json")):
            try:
                with path.open("r", encoding="utf-8") as handle:
                    report = json.load(handle)
            except (OSError, ValueError):
                continue
            for scenario in report.get("scenarios", []):
                rows.append(
                    {
                        "report": path.name,
                        "created": report.get("created"),
                        "scenario": scenario.get("name"),
                        "wall_clock_s": scenario.get("wall_clock_s"),
                    }
                )
        return _page(
            "bench trajectory",
            _html_table(rows, ["report", "created", "scenario", "wall_clock_s"]),
        )


def _raw_table(rows: Sequence[Dict[str, Any]], columns: Sequence[str]) -> str:
    """Like ``_html_table`` but cell values are pre-rendered HTML for the
    columns that carry links; plain values still get escaped."""
    if not rows:
        return "<p>(none)</p>"
    head = "".join(f"<th>{html.escape(col)}</th>" for col in columns)
    body_rows = []
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col)
            if isinstance(value, str) and value.startswith("<a "):
                cells.append(f"<td>{value}</td>")
            else:
                cells.append(f"<td>{_esc(value)}</td>")
        body_rows.append("<tr>" + "".join(cells) + "</tr>")
    return f"<table><tr>{head}</tr>{''.join(body_rows)}</table>"
