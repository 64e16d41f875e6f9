"""End-to-end benchmark of the WhitenRec reproduction (see README.md).

The harness drives the program from outside: a launcher process builds the
deployment from the seed with public API and serves it over HTTP, the
harness process generates seeded load over two keep-alive connections, and
a training child runs ``Trainer`` for the offline workload.  Nothing in
``src/`` is changed by, or imports, this package.
"""

#: sender threads of the load generator, one persistent connection each.
#: A constant sized for the 2-core reference box — never derived from
#: ``nproc`` (which is recorded in the environment stamp instead), so two
#: machines disagree about results, not about the experiment.
SENDER_THREADS = 2

#: a request "meets the limit" when its response is read within this many
#: seconds of its *due* time (not its send time)
LATENCY_LIMIT_S = 0.100

#: top-k asked for by every request
K = 10
