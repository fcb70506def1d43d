"""SCD007 fixture: scheduling calls with and without job tags.

The four untagged calls below must each be flagged; the tagged calls
and the unqualified name must stay silent.
"""


class LeakyRunner:
    def leaky_transfer(self, network, src, dst, nbytes, ready):
        return network.transfer(src, dst, nbytes, ready)  # flagged

    def leaky_kernel(self, pool, gpu, ready, duration):
        return pool.run_kernel(gpu, ready, duration)  # flagged

    def leaky_route(self, simclock, route, ready, nbytes):
        return simclock.commit_route(route, ready, nbytes, 1.0, 1.0,
                                     None)  # flagged

    def tagged_route(self, simclock, route, ready, nbytes, job):
        return simclock.commit_route(route, ready, nbytes, 1.0, 1.0,
                                     job)  # tagged: silent

    def tagged_kwarg(self, network, src, dst, nbytes, ready, state):
        return network.transfer(src, dst, nbytes, ready,
                                job=state.spec.job_id)  # tagged: silent

    def tagged_positional(self, pool, ready, duration, job):
        return pool.schedule(ready, duration, job)  # tagged: silent

    def tagged_attribute(self, pool, gpu, ready, duration, state):
        return pool.run_kernel(gpu, ready, duration,
                               state.job_id)  # tagged: silent


def leaky_collective(net, ranks, numel, spec):
    return net.time_allreduce(ranks, numel, spec)  # flagged


def unqualified_helper(transfer):
    # a bare name is not a scheduling method on a shared object
    return transfer(0, 1, 8, 0.0)
