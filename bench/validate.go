package main

import (
	"fmt"

	"ibr/internal/server"
)

// outcome classifies one answered request.
type outcome int

const (
	outOK      outcome = iota // the op took effect (GET hit, PUT inserted, DEL removed, RANGE scanned)
	outNoop                   // a valid answer with no effect: GET/DEL miss, PUT on a present key
	outFailed                 // refused or lost: BUSY, SHUTDOWN, INTERNAL, transport error
	outInvalid                // a wrong answer: the run's output is not correct
)

// check validates one response against the request that produced it. A
// request that failed (err != nil, or an overload/shutdown status) is not
// wrong, only missing; BAD_REQUEST, UNSUPPORTED, a status the op cannot
// produce, a GET value the generator never wrote, or a malformed RANGE
// result is wrong.
func check(req server.Request, resp server.Response, err error) (outcome, error) {
	if err != nil {
		return outFailed, nil
	}
	switch resp.Status {
	case server.StatusBusy, server.StatusShutdown, server.StatusInternal:
		return outFailed, nil
	}
	switch req.Op {
	case server.OpGet:
		switch resp.Status {
		case server.StatusOK:
			if resp.Val != value(req.Key) {
				return outInvalid, fmt.Errorf("GET %d returned %d, want %d", req.Key, resp.Val, value(req.Key))
			}
			return outOK, nil
		case server.StatusNotFound:
			return outNoop, nil
		}
	case server.OpPut:
		switch resp.Status {
		case server.StatusOK:
			return outOK, nil
		case server.StatusExists:
			return outNoop, nil
		}
	case server.OpDel:
		switch resp.Status {
		case server.StatusOK:
			return outOK, nil
		case server.StatusNotFound:
			return outNoop, nil
		}
	case server.OpRange:
		if resp.Status == server.StatusOK {
			if err := checkRange(req, resp.Pairs); err != nil {
				return outInvalid, err
			}
			return outOK, nil
		}
	}
	return outInvalid, fmt.Errorf("%v %d answered %v", req.Op, req.Key, resp.Status)
}

// checkRange validates a RANGE result: at most Limit pairs, keys strictly
// ascending inside [Key, KeyHi], every value the one the generator writes.
func checkRange(req server.Request, pairs []server.Pair) error {
	if req.Limit != 0 && len(pairs) > int(req.Limit) {
		return fmt.Errorf("RANGE [%d,%d] returned %d pairs, limit %d", req.Key, req.KeyHi, len(pairs), req.Limit)
	}
	for i, p := range pairs {
		if p.Key < req.Key || p.Key > req.KeyHi {
			return fmt.Errorf("RANGE [%d,%d] returned key %d out of bounds", req.Key, req.KeyHi, p.Key)
		}
		if i > 0 && p.Key <= pairs[i-1].Key {
			return fmt.Errorf("RANGE [%d,%d] not strictly ascending: %d after %d", req.Key, req.KeyHi, p.Key, pairs[i-1].Key)
		}
		if p.Val != value(p.Key) {
			return fmt.Errorf("RANGE [%d,%d] returned %d→%d, want %d", req.Key, req.KeyHi, p.Key, p.Val, value(p.Key))
		}
	}
	return nil
}
