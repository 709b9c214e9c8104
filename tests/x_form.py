"""A catalog entry's integrand as a function of x, for the tests that read
it at points of the domain."""


def x_form(rep, n):
    """The integrand at n as a function of x: an endpoint-singular entry's
    takes the endpoint distances (x - a, b - x)."""
    f = rep.integrand
    if rep.endpoint_singular:
        a, b = rep.domain
        return lambda x: f(n, x - a, b - x)
    return lambda x: f(n, x)
