//! A protocol-v2 score connection split into a sending and a receiving
//! half, so an open loop can send on schedule while replies arrive.

use lre_serve::protocol::{decode_score_reply_v2, encode_request, read_frame, write_frame};
use lre_serve::{Request, ScoredUtt};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// No reply within this long means the server is stuck; the run fails
/// instead of hanging.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

pub struct SendHalf(TcpStream);
pub struct RecvHalf(TcpStream);

pub fn connect(addr: SocketAddr) -> Result<(SendHalf, RecvHalf), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(READ_TIMEOUT)))
        .map_err(|e| format!("configuring the connection: {e}"))?;
    let reader = stream
        .try_clone()
        .map_err(|e| format!("splitting the connection: {e}"))?;
    Ok((SendHalf(stream), RecvHalf(reader)))
}

impl SendHalf {
    pub fn send(&mut self, id: u64, samples: &[f32]) -> Result<(), String> {
        let frame = encode_request(&Request::ScoreV2 {
            id,
            deadline_ms: 0,
            samples: samples.to_vec(),
        });
        write_frame(&mut self.0, &frame).map_err(|e| format!("sending request {id}: {e}"))
    }

    /// Close both directions, which also wakes a receiver blocked on the
    /// other half.
    pub fn shutdown(&self) {
        let _ = self.0.shutdown(std::net::Shutdown::Both);
    }
}

impl RecvHalf {
    /// The next reply: its id and either the scored utterance or the
    /// refusal status. A closed connection or an undecodable (torn) reply
    /// is an error.
    pub fn recv(&mut self) -> Result<(u64, Result<ScoredUtt, u8>), String> {
        let frame = read_frame(&mut self.0)
            .map_err(|e| format!("reading a reply: {e}"))?
            .ok_or("server closed the connection with replies outstanding")?;
        decode_score_reply_v2(&frame).map_err(|e| format!("torn reply: {e}"))
    }
}
