//! A blocking keep-alive HTTP/1.1 client with `Content-Length` framing.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response: status code and body.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// If `buf` starts with one complete response, return it and the number
/// of bytes it spans. `Ok(None)` means more bytes are needed.
pub fn split_response(buf: &[u8]) -> io::Result<Option<(Response, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let len: usize = lines
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .ok_or_else(|| bad("response without Content-Length"))?;
    let total = head_end + 4 + len;
    if buf.len() < total {
        return Ok(None);
    }
    let body =
        String::from_utf8(buf[head_end + 4..total].to_vec()).map_err(|_| bad("non-UTF-8 body"))?;
    Ok(Some((Response { status, body }, total)))
}

/// Read one framed response off `stream`, buffering in `buf` (which may
/// already hold bytes, and keeps any that belong to the next response).
pub fn read_response<R: Read>(stream: &mut R, buf: &mut Vec<u8>) -> io::Result<Response> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some((resp, used)) = split_response(buf)? {
            buf.drain(..used);
            return Ok(resp);
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// One persistent connection; one request in flight at a time.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connect with a read timeout: a reply slower than `timeout` fails
    /// the operation.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Send one request and wait for its response.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(wire.as_bytes())?;
        read_response(&mut self.stream, &mut self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out the bytes in pieces of the given sizes, cycling.
    struct Chunked {
        data: Vec<u8>,
        pos: usize,
        sizes: Vec<usize>,
        turn: usize,
    }

    impl Read for Chunked {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let want = self.sizes[self.turn % self.sizes.len()];
            self.turn += 1;
            let n = want.min(out.len()).min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn wire(status: u16, body: &str) -> String {
        format!(
            "HTTP/1.1 {status} OK\r\ncontent-length: {}\r\nX-Request-Id: 0-1\r\n\r\n{body}",
            body.len()
        )
    }

    #[test]
    fn frames_back_to_back_responses_across_any_split() {
        let bodies = ["{\"scores\":[0.25]}", "", "{\"rows\":[]}"];
        let all: String = bodies
            .iter()
            .enumerate()
            .map(|(i, b)| wire(200 + i as u16, b))
            .collect();
        for sizes in [vec![1], vec![2, 3], vec![7], vec![4096], vec![1, 50, 3]] {
            let mut r = Chunked {
                data: all.clone().into_bytes(),
                pos: 0,
                sizes,
                turn: 0,
            };
            let mut buf = Vec::new();
            for (i, b) in bodies.iter().enumerate() {
                let resp = read_response(&mut r, &mut buf).unwrap();
                assert_eq!(resp.status, 200 + i as u16);
                assert_eq!(resp.body, *b);
            }
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn incomplete_and_malformed_input() {
        let full = wire(200, "abc");
        let bytes = full.as_bytes();
        for cut in 0..bytes.len() {
            assert!(
                split_response(&bytes[..cut]).unwrap().is_none(),
                "cut {cut}"
            );
        }
        assert!(split_response(bytes).unwrap().is_some());
        assert!(split_response(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
        assert!(split_response(b"garbage\r\n\r\n").is_err());
        let mut eof = Chunked {
            data: bytes[..10].to_vec(),
            pos: 0,
            sizes: vec![4],
            turn: 0,
        };
        let err = read_response(&mut eof, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
