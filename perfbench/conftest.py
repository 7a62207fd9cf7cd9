"""Test set-up for the benchmark's own tests: import the checkout's program."""

import program

program.load()
