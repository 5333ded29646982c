SELECT a.v, b.v, COUNT(*) FROM e1025 a, e1024 b WHERE a.k = b.k AND a.k < 2 GROUP BY a.v, b.v
