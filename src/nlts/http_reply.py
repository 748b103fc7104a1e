"""An incremental reader of one HTTP/1.1 reply, for HttpBackend's loop.

Reply.feed takes a reply's bytes as they arrive, in pieces of any size, and
says when the reply is whole, so that a reply is read without blocking. A
malformed or cut-off reply raises http.client's own exception for it, within
http.client's limits on the head.
"""

from __future__ import annotations

import re
from http.client import (
    BadStatusLine,
    HTTPException,
    IncompleteRead,
    LineTooLong,
    RemoteDisconnected,
    UnknownProtocol,
)

# http.client's limits: the longest line of a head, and the most lines in one
MAXLINE = 65536
MAXHEADERS = 100
_HEAD_END = re.compile(rb"\n\r?\n")  # a line's end, then a blank line
# a header line of a field that frames the body or says what becomes of the connection
_FIELD = re.compile(rb"^(connection|content-length|keep-alive|retry-after|transfer-encoding):(.*)",
                    re.IGNORECASE | re.MULTILINE)


class Reply:
    """One reply. It reads the status line and the header fields, skips 1xx
    interim replies, and frames the body by Transfer-Encoding: chunked (chunk
    extensions and trailers allowed), else by Content-Length, else by the
    connection's end; a 204 or 304 has none. An HTTP/1.1 reply keeps its
    connection unless it says "Connection: close", an HTTP/1.0 one only when
    it says keep-alive. A field named twice counts at its first line."""

    def __init__(self):
        self.data = b""  # bytes fed and not yet parsed
        self.started = False  # whether any byte has arrived
        self.keep_alive = True  # whether the connection can carry the next request
        self.status = self.retry_after = self.body = None
        self._chunks = []
        self._left = 0  # bytes still to come of the body, or of its current chunk
        self._stage = Reply._head  # a plain function: a bound method would make a cycle

    def feed(self, data: bytes) -> bool:
        """Takes the next bytes read from the connection, b"" for its end;
        returns whether the reply is whole."""
        if data:
            self.started = True
            self.data += data
        else:
            self.keep_alive = False
        while self.body is None and self._stage(self, not data):
            pass
        return self.body is not None

    # Each stage reads what it can of data and returns whether it moved on to
    # the next one; eof says the connection has ended.

    def _head(self, eof):
        end = _HEAD_END.search(self.data)
        if end is None:
            start = self.data.rfind(b"\n") + 1
            if len(self.data) - start >= MAXLINE:
                raise LineTooLong("header line" if start else "status line")
            if self.data.count(b"\n") > MAXHEADERS:
                raise HTTPException(f"got more than {MAXHEADERS} headers")
            if eof:
                raise (IncompleteRead(self.data) if self.started else
                       RemoteDisconnected("Remote end closed connection without response"))
            return False
        head, self.data = self.data[:end.start()], self.data[end.end():]
        if head.count(b"\n") >= MAXHEADERS:
            raise HTTPException(f"got more than {MAXHEADERS} headers")
        if len(head) >= MAXLINE:
            for n, line in enumerate(head.split(b"\n")):
                if len(line) >= MAXLINE:
                    raise LineTooLong("header line" if n else "status line")
        status_line, _, head = head.partition(b"\n")
        words = status_line.split(None, 2)
        if not (len(words) > 1 and words[0].startswith(b"HTTP/") and words[1].isdigit()
                and 100 <= int(words[1]) <= 999):
            raise BadStatusLine(status_line.decode("latin-1"))
        version, status = words[0], int(words[1])
        if not version.startswith(b"HTTP/1.") and version != b"HTTP/0.9":
            raise UnknownProtocol(version.decode("latin-1"))
        if status < 200:
            return True  # an interim reply: the reply itself follows
        # a field named twice counts at its first line, a folded line at none
        fields = {name.lower(): value.strip() for name, value in reversed(_FIELD.findall(head))}
        self.status = status
        retry_after = fields.get(b"retry-after")
        self.retry_after = None if retry_after is None else retry_after.decode("latin-1")
        connection = fields.get(b"connection", b"").lower()
        if version in (b"HTTP/1.0", b"HTTP/0.9"):
            self.keep_alive = b"keep-alive" in connection or b"keep-alive" in fields
        else:
            self.keep_alive = b"close" not in connection
        if status in (204, 304):
            return self._finish(b"")
        if fields.get(b"transfer-encoding", b"").lower() == b"chunked":
            self._stage = Reply._chunk_size
            return True
        try:
            self._left = int(fields[b"content-length"])
        except (KeyError, ValueError):
            self._left = -1
        if self._left < 0:  # no usable length: the body runs to the connection's end
            self.keep_alive = False
        self._stage = Reply._fixed if self._left >= 0 else Reply._to_close
        return self._stage(self, eof)  # most often the whole body came with the head

    def _fixed(self, eof):
        if len(self.data) < self._left:
            if eof:
                raise IncompleteRead(self.data, self._left - len(self.data))
            return False
        body, self.data = self.data[:self._left], self.data[self._left:]
        return self._finish(body)

    def _to_close(self, eof):
        if not eof:
            return False
        body, self.data = self.data, b""
        return self._finish(body)

    def _chunk_size(self, eof):
        line = self._line("chunk size")
        if line is None:
            if eof:
                raise IncompleteRead(b"".join(self._chunks))
            return False
        try:
            self._left = int(line.split(b";", 1)[0], 16)  # without any chunk extension
        except ValueError:
            self._left = -1
        if self._left < 0:
            raise IncompleteRead(b"".join(self._chunks))
        self._stage = Reply._chunk if self._left else Reply._trailer
        return True

    def _chunk(self, eof):
        end = self._left + 2  # the chunk, then the line break after it
        if len(self.data) < end:
            if eof:
                raise IncompleteRead(b"".join(self._chunks))
            return False
        self._chunks.append(self.data[:self._left])
        self.data = self.data[end:]
        self._stage = Reply._chunk_size
        return True

    def _trailer(self, eof):
        while True:
            line = self._line("trailer line")
            if line is None and not eof:
                return False
            if line is None or line in (b"\r\n", b"\n"):  # a blank line or the end ends it
                return self._finish(b"".join(self._chunks))

    def _finish(self, body):
        self.body = body
        if self.data:  # bytes past the reply: the connection is out of step
            self.keep_alive = False
        return True

    def _line(self, what):
        """The next line, its line break included, taken off data; None while
        it is still coming. Raises LineTooLong past MAXLINE."""
        end = self.data.find(b"\n", 0, MAXLINE)
        if end < 0:
            if len(self.data) >= MAXLINE:
                raise LineTooLong(what)
            return None
        line, self.data = self.data[:end + 1], self.data[end + 1:]
        return line
