#!/bin/sh
# ci.sh — the repository's CI gate, runnable locally or from a workflow.
# Every leg is defined once, in the Makefile's `check` target; this script
# only runs it, so CI needs nothing but a shell, make and go.
set -eux
exec make check
