SELECT b.v, a.k FROM e1025 a, e1024 b WHERE a.flag = b.flag AND a.k < 2 ORDER BY b.v DESC, a.k LIMIT 1500
