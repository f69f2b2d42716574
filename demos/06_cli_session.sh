#!/bin/sh
# A complete operator session: keys, issuance, resolution, authorization.
# Run from anywhere; works in a scratch directory, removed on exit, and prints
# as it goes.  Without an installed `vouchsafe`, runs this checkout's CLI.
set -e

if ! command -v vouchsafe >/dev/null 2>&1; then
  PYTHONPATH="$(cd "$(dirname "$0")/../src" && pwd)${PYTHONPATH:+:$PYTHONPATH}"
  export PYTHONPATH
  vouchsafe() { python3 -m vouchsafe.cli "$@"; }
fi

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
cd "$DIR"
echo "working in $DIR"

echo
echo "# 1. two identities: a field device and the operations root"
DEVICE_URN=$(vouchsafe keygen --label device-17 --out device.seed)
ROOT_URN=$(vouchsafe keygen --label ops-root --out root.seed)
echo "device: $DEVICE_URN"
echo "root:   $ROOT_URN"

echo
echo "# 2. the device attests; root endorses it for read+write"
vouchsafe issue attest --key device.seed --label device-17 \
  --purpose "read write" --claim site=north-ridge > attest.jwt
vouchsafe issue vouch --key root.seed --label ops-root \
  --subject attest.jwt --purpose "read write" > vouch.jwt
cat attest.jwt vouch.jwt > bundle.jsonl

echo
echo "# 3. inspect a token (validity is data, not an exit code)"
vouchsafe inspect attest.jwt

echo
echo "# 4. trust configuration: root may grant at most read+write"
printf '[{"identity": "%s", "scope": ["read", "write"]}]\n' "$ROOT_URN" > trust.json

echo
echo "# 5. authorization queries (exit 0 = ACCEPT, 1 = REJECT)"
SUBJECT=$(vouchsafe inspect attest.jwt --json | python3 -c 'import json,sys; print(json.load(sys.stdin)["tid"])')
vouchsafe evaluate bundle.jsonl --trust trust.json --subject "$SUBJECT" --require read || true
vouchsafe evaluate bundle.jsonl --trust trust.json --subject "$SUBJECT" --require admin || true

echo
echo "# 6. revoke the endorsement and watch resolution omit it"
vouchsafe issue revoke --key root.seed --label ops-root --target vouch.jwt >> bundle.jsonl
vouchsafe resolve bundle.jsonl

echo
echo "# 7. the same query now fails -- no service was ever consulted"
vouchsafe evaluate bundle.jsonl --trust trust.json --subject "$SUBJECT" --require read || true
