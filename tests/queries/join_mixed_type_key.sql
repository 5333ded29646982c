SELECT e.k, e.v, d.label FROM e1024 e JOIN dims d ON e.v = d.k
