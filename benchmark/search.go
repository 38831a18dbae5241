package main

// probe is one trial of the rate search: a fresh deployment offered
// one constant rate.
type probe struct {
	Rate          float64 `json:"rate"`
	Pass          bool    `json:"pass"`
	Valid         bool    `json:"valid"`
	P99us         float64 `json:"p99_us"`
	FailedRatio   float64 `json:"failed_ratio"`
	LatenessP99us float64 `json:"lateness_p99_us"`
}

// searchResult is the highest offered rate that passed. Censored
// means no valid failing probe bounds it from above: the ceiling was
// reached, or the generator could not keep the schedule at the rate
// above.
type searchResult struct {
	Rate     float64 `json:"rate"`
	Censored bool    `json:"censored"`
	Probes   []probe `json:"probes"`
}

// searchBounds are where the rate search starts, the rates it may not
// leave, and the bracket (a fraction of the highest pass) at which it
// stops.
type searchBounds struct {
	start, floor, ceiling, bracket float64
}

// searchRate doubles the rate from b.start until the first probe that
// does not pass (or the ceiling), then bisects until the bracket
// between the highest pass and the lowest failure is within b.bracket.
// When the start rate already fails it halves instead, down to the
// floor. A probe that is not valid bounds the search from above like a
// failure, but leaves the result censored.
func searchRate(b searchBounds, try func(rate float64) (probe, error)) (searchResult, error) {
	var res searchResult
	run := func(rate float64) (probe, error) {
		p, err := try(rate)
		if err == nil {
			res.Probes = append(res.Probes, p)
		}
		return p, err
	}
	var lo, hi float64
	hiValid := false
	for rate := b.start; ; {
		p, err := run(rate)
		if err != nil {
			return res, err
		}
		if p.Valid && p.Pass {
			lo = rate
			if hi > 0 || rate >= b.ceiling {
				break
			}
			rate = min(rate*2, b.ceiling)
			continue
		}
		hi, hiValid = rate, p.Valid
		if lo > 0 || rate/2 < b.floor {
			break
		}
		rate /= 2
	}
	for lo > 0 && hi > 0 && (hi-lo)/lo > b.bracket {
		mid := (lo + hi) / 2
		p, err := run(mid)
		if err != nil {
			return res, err
		}
		if p.Valid && p.Pass {
			lo = mid
		} else {
			hi, hiValid = mid, p.Valid
		}
	}
	res.Rate, res.Censored = lo, !hiValid
	return res, nil
}
