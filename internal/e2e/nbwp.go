package e2e

import (
	"context"
	"fmt"

	"nanobus/client"
)

// StreamNBWP runs one session over the binary protocol: it dials addr,
// opens a session with cfg and a collector for the SAMPLE frames the
// daemon streams live, hands the session to run, then says goodbye and
// closes the connection. run is the script's own step sequence; it
// fetches the result and closes the session. StreamNBWP returns run's
// result and every sample streamed while it ran: the sample callback
// fires before the triggering step is acked, so nothing is still in
// flight when run returns.
func StreamNBWP(ctx context.Context, addr string, cfg client.SessionConfig, run func(client.Session) (*client.Result, error)) (*client.Result, []client.Sample, error) {
	nc, err := client.DialNBWP(ctx, addr)
	if err != nil {
		return nil, nil, fmt.Errorf("dial: %w", err)
	}
	defer func() {
		_ = nc.Close() //nanolint:ignore droppederr best-effort close; the run already reported its outcome
	}()
	var streamed []client.Sample
	sess, err := nc.Open(ctx, cfg, func(s client.Sample) { streamed = append(streamed, s) })
	if err != nil {
		return nil, nil, fmt.Errorf("open: %w", err)
	}
	res, err := run(sess)
	if err != nil {
		return nil, nil, err
	}
	if err := nc.Goodbye(ctx); err != nil {
		return nil, nil, fmt.Errorf("goodbye: %w", err)
	}
	return res, streamed, nil
}
