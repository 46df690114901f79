"""Exercise the wire codec and the real-datagram probe on loopback.

Packets are framed as a fixed little-endian header, random padding up to the
configured size, and a trailing CRC-32; receivers accept a datagram only on
a matching checksum. The probe pair measures real round-trip times and
grades them against the per-modality RTT budgets.
"""

import socket
import tempfile
import threading
import time
from random import Random

from tcpsbench import Packet, decode, encode, rtt_budget
from tcpsbench.cli import run_command

rng = Random(1)
pkt = Packet(kind=0, seq=42, epoch=7, x=12.345, value=99.84)
for size in (32, 256, 1024):
    data = encode(pkt, size, rng)
    print(f"B = {size:4d}: encoded {len(data)} bytes, "
          f"round-trip ok = {decode(data) == pkt}")

corrupted = bytearray(encode(pkt, 64, rng))
corrupted[40] ^= 0x10
try:
    decode(bytes(corrupted))
except Exception as exc:
    print(f"single flipped bit -> {type(exc).__name__}")

for modality in ("video", "audio", "haptic"):
    budget = rtt_budget(modality)
    print(f"RTT budget for the kinematic-{modality} loop: {budget.max_rtt_ms:.0f} ms")

# a local probe pair: responder in a thread, measurement over 127.0.0.1, on a
# port the kernel picks free and into a fresh directory, so that two runs at
# once do not meet. The measurement starts once the kernel stops refusing
# datagrams to the responder's port (the responder skips the undecodable
# polls); a packet sent before the responder binds is lost
with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as reserve:
    reserve.bind(("127.0.0.1", 0))
    port = reserve.getsockname()[1]
server = threading.Thread(
    target=run_command,
    args=(["probe", "serve", "--bind", f"127.0.0.1:{port}", "--count", "20"],),
    daemon=True)
server.start()
with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as poll:
    poll.connect(("127.0.0.1", port))
    poll.settimeout(0.05)
    for _ in range(100):
        poll.send(b"?")
        try:
            poll.recv(1)
        except ConnectionRefusedError:
            time.sleep(0.01)
        except socket.timeout:
            break
with tempfile.TemporaryDirectory() as out:
    run_command(["probe", "measure", "--local", "127.0.0.1:0",
                 "--remote", f"127.0.0.1:{port}", "--count", "20", "--out", out])
server.join(timeout=5.0)
