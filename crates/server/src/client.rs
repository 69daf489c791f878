//! A blocking client for the dcode wire protocol: one TCP connection,
//! one in-flight request at a time. The load generator and the
//! integration tests drive the server exclusively through this type, so
//! it exercises exactly the code path a real client would.

use crate::protocol::{read_frame, write_frame, Request, Response};
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};

/// One connection to a dcode server.
pub struct Client {
    /// Reads go through the buffer (a small reply is one `read`); writes
    /// go straight to the socket underneath it.
    stream: BufReader<TcpStream>,
}

impl Client {
    /// Connect to `addr` (e.g. `("127.0.0.1", port)`).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream: BufReader::new(stream),
        })
    }

    /// Send one request and wait for its response. A request the wire
    /// cannot carry (a name over 65,535 bytes, a frame over
    /// [`MAX_FRAME`](crate::protocol::MAX_FRAME)) is `InvalidInput`, and
    /// nothing is sent: the connection stays usable.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        request.check()?;
        write_frame(self.stream.get_mut(), &request.encode())?;
        let body = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        Response::decode(&body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Store `value` under `name` (replacing any existing object).
    pub fn put(&mut self, name: &str, value: &[u8]) -> io::Result<Response> {
        self.request(&Request::Put {
            name: name.to_string(),
            value: value.to_vec(),
        })
    }

    /// Fetch the object named `name`.
    pub fn get(&mut self, name: &str) -> io::Result<Response> {
        self.request(&Request::Get {
            name: name.to_string(),
        })
    }

    /// Delete the object named `name`.
    pub fn delete(&mut self, name: &str) -> io::Result<Response> {
        self.request(&Request::Delete {
            name: name.to_string(),
        })
    }

    /// Scrub every shard; returns the merged JSON report.
    pub fn scrub(&mut self) -> io::Result<Response> {
        self.request(&Request::Scrub)
    }

    /// Fetch the server's stat document.
    pub fn stat(&mut self) -> io::Result<Response> {
        self.request(&Request::Stat)
    }
}
